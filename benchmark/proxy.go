package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// countingProxy is a loopback TCP proxy in front of one shard that counts
// what crosses it: connections, bytes, reads that returned data (one per
// TCP segment or coalesced burst the kernel delivered) and direction
// flips.  A request/response protocol flips direction twice per round
// trip, so flips/2 is the number of round trips — measured on the wire,
// without a hook in netproto.  Only traced runs dial through it.
type countingProxy struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]bool // both legs of every open connection
	closed bool

	accepted atomic.Int64
	bytes    atomic.Int64
	segments atomic.Int64
	flips    atomic.Int64
}

// proxyCounts is a snapshot of a proxy's counters.
type proxyCounts struct {
	conns, bytes, segments, flips int64
}

func (c proxyCounts) sub(o proxyCounts) proxyCounts {
	return proxyCounts{c.conns - o.conns, c.bytes - o.bytes, c.segments - o.segments, c.flips - o.flips}
}

func (c proxyCounts) add(o proxyCounts) proxyCounts {
	return proxyCounts{c.conns + o.conns, c.bytes + o.bytes, c.segments + o.segments, c.flips + o.flips}
}

func newCountingProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, target: target, conns: make(map[net.Conn]bool)}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

func (p *countingProxy) counts() proxyCounts {
	return proxyCounts{p.accepted.Load(), p.bytes.Load(), p.segments.Load(), p.flips.Load()}
}

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = down.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = down.Close()
			_ = up.Close()
			return
		}
		p.conns[down], p.conns[up] = true, true
		p.mu.Unlock()
		p.accepted.Add(1)
		// dir is the direction of the last data seen on this connection:
		// 0 none yet, 1 client→shard, 2 shard→client.
		dir := new(atomic.Int32)
		p.wg.Add(2)
		go p.pipe(up, down, 1, dir)
		go p.pipe(down, up, 2, dir)
	}
}

// pipe copies src to dst until either side closes, then closes both so the
// opposite pipe ends too.
func (p *countingProxy) pipe(dst, src net.Conn, way int32, dir *atomic.Int32) {
	defer p.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.bytes.Add(int64(n))
			p.segments.Add(1)
			if dir.Swap(way) != way {
				p.flips.Add(1)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	_ = src.Close()
	_ = dst.Close()
	p.mu.Lock()
	delete(p.conns, src)
	delete(p.conns, dst)
	p.mu.Unlock()
}

// close stops accepting, closes every open connection and waits for the
// proxy's goroutines.
func (p *countingProxy) close() {
	_ = p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
