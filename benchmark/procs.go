package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// shardProc is one spawned hybrid-shardd process.
type shardProc struct {
	cmd     *exec.Cmd
	addr    string
	dir     string
	spawnMs float64 // process start → accepting connections
}

// procSet owns every child process and scratch directory of the benchmark
// so that any exit path — normal, failed check, SIGINT — can kill and reap
// the children and remove the directories.
type procSet struct {
	mu    sync.Mutex
	procs map[*shardProc]bool
	dirs  map[string]bool
}

func newProcSet() *procSet {
	return &procSet{procs: make(map[*shardProc]bool), dirs: make(map[string]bool)}
}

// tempDir creates a scratch directory under parent, removed by cleanup (or
// earlier by removeDir).
func (ps *procSet) tempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	ps.mu.Lock()
	ps.dirs[dir] = true
	ps.mu.Unlock()
	return dir, nil
}

func (ps *procSet) removeDir(dir string) {
	ps.mu.Lock()
	delete(ps.dirs, dir)
	ps.mu.Unlock()
	_ = os.RemoveAll(dir)
}

// cleanup kills and reaps every live child and removes every scratch
// directory.  It is safe to call more than once and from a signal handler
// goroutine.
func (ps *procSet) cleanup() {
	ps.mu.Lock()
	procs := ps.procs
	dirs := ps.dirs
	ps.procs = make(map[*shardProc]bool)
	ps.dirs = make(map[string]bool)
	ps.mu.Unlock()
	for p := range procs {
		p.kill()
	}
	for d := range dirs {
		_ = os.RemoveAll(d)
	}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawnShard starts shard i of n over a fresh directory under parent and
// waits until it accepts connections.  fsync is off and group commit is not
// enabled: the wire workloads measure netproto, not the device.
func (ps *procSet) spawnShard(bin, parent string, i, n int) (*shardProc, error) {
	dir, err := ps.tempDir(parent, fmt.Sprintf("shard%d-", i))
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "shardd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-addr", addr, "-shard", strconv.Itoa(i), "-shards", strconv.Itoa(n),
		"-dir", dir, "-fsync=false", "-grace", "1s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark be killed outright, the kernel kills the shard
	// too.  (The signal follows the spawning thread; Go ends a thread only
	// when a goroutine locked to it exits, and nothing here locks one.)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start shardd %d: %w", i, err)
	}
	p := &shardProc{cmd: cmd, addr: addr, dir: dir}
	ps.mu.Lock()
	ps.procs[p] = true
	ps.mu.Unlock()
	for time.Since(start) < 10*time.Second {
		nc, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = nc.Close()
			p.spawnMs = float64(time.Since(start)) / 1e6
			return p, nil
		}
		time.Sleep(time.Millisecond)
	}
	tail := p.tailLog()
	ps.stop(p)
	return nil, fmt.Errorf("shardd %d never came up on %s; log tail:\n%s", i, addr, tail)
}

// stop kills and reaps p and removes its directory.
func (ps *procSet) stop(p *shardProc) {
	ps.mu.Lock()
	delete(ps.procs, p)
	ps.mu.Unlock()
	p.kill()
	ps.removeDir(p.dir)
}

func (p *shardProc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// alive reports whether the process still runs (it has not been reaped and
// is not a zombie).
func (p *shardProc) alive() bool {
	st, err := readProcStat(p.cmd.Process.Pid)
	return err == nil && st.state != 'Z'
}

func (p *shardProc) tailLog() string {
	b, err := os.ReadFile(filepath.Join(p.dir, "shardd.log"))
	if err != nil {
		return fmt.Sprintf("<unreadable: %v>", err)
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// procStat is what the benchmark reads of /proc/<pid>/stat and status.
type procStat struct {
	state byte
	cpu   time.Duration // user + system
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 100

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the last ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return procStat{}, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return procStat{state: f[0][0], cpu: time.Duration(utime+stime) * time.Second / clockTick}, nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpuOf sums the CPU time consumed so far by the given processes.
func cpuOf(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		st, err := readProcStat(pid)
		if err != nil {
			return 0, err
		}
		total += st.cpu
	}
	return total, nil
}
