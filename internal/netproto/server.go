package netproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hybridcc/internal/baseline"
	"hybridcc/internal/codec"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// Server serves one shard — a core.System — over the wire protocol.  One
// goroutine per connection runs a synchronous request/response loop;
// transactions are pinned by the client to one connection each, so a
// blocking lock wait stalls only its own transaction's connection.  A
// client may pipeline a transaction's write-behind calls ahead of a
// request; the loop answers such a burst with one write.
//
// The server is the 2PC participant, and its branches' rules are one
// transition function, branchTable.step (branch.go): a handler asks step
// what a request does, makes the one core call the action names, and
// reports the call's result as the next event.  An update branch is
// active, prepared (voted yes), deciding (a commit is being applied),
// failed (its decided commit could not be logged) or recovered (prepared
// before a restart); a read branch is reading.  branchrules.txt writes
// step out, one line per class of inputs, and TestBranchRules checks it
// against a model shard.
type Server struct {
	sys    *core.System
	shard  int
	shards int
	opts   ServerOptions

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]bool
	branches branchTable
	closed   bool

	// regMu serialises registration batches, so a batch's check of which
	// objects exist, its catalog append and the objects it creates are one
	// step to any other batch.
	regMu sync.Mutex

	wg sync.WaitGroup
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Catalog, when non-nil, makes registrations and scheme switches
	// durable: each register message — a dialed setup's whole batch for
	// this shard, or one object — costs one catalog write and one fsync,
	// made before the message is acknowledged.  A volatile server (tests,
	// benchmarks) leaves it nil.
	Catalog *Catalog
}

// serverConn is one client connection.
type serverConn struct {
	nc     net.Conn
	ctx    context.Context
	cancel context.CancelFunc
}

// NewServer wraps sys as a served shard.  If sys recovered
// prepared-but-undecided branches from its WAL, the server starts in the
// recovering state and FinishRecovery is deferred until every branch is
// resolved over the wire; otherwise recovery completes here and the
// server starts serving.
func NewServer(sys *core.System, shard, shards int, opts ServerOptions) (*Server, error) {
	s := &Server{
		sys:      sys,
		shard:    shard,
		shards:   shards,
		opts:     opts,
		conns:    make(map[*serverConn]bool),
		branches: branchTable{live: map[histories.TxID]*branch{}, outcomes: map[histories.TxID]txOutcome{}},
	}
	now := time.Now()
	for tx := range sys.RecoveredCommittedSeq() {
		s.branches.step(tx.ID, branchEvent{kind: evRecover, ts: tx.TS})
	}
	for _, tx := range sys.RecoveredPending() {
		s.branches.step(tx.ID, branchEvent{kind: evRecover, at: now})
	}
	if a := s.resolveLocked("", s.branches.step("", branchEvent{kind: evScanned})); a.err != nil {
		return nil, a.err
	}
	return s, nil
}

// Recovering reports whether the shard is still resolving recovered
// prepared branches.
func (s *Server) Recovering() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.branches.recovering()
}

// BranchInfo is one live branch: its transaction, its state (active,
// prepared, deciding, failed, recovered or reading), and how long since it
// began, or since it voted yes once it has.
type BranchInfo struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	AgeMs float64 `json:"age_ms"`
}

// Branches lists the shard's live branches, update and read.
func (s *Server) Branches() []BranchInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BranchInfo, 0, len(s.branches.live))
	for id, b := range s.branches.live {
		age := float64(time.Since(b.since).Microseconds()) / 1000
		out = append(out, BranchInfo{ID: string(id), State: stateNames[b.state], AgeMs: age})
	}
	return out
}

// System returns the served shard.
func (s *Server) System() *core.System { return s.sys }

// Serve accepts connections on ln until Shutdown.  It returns when the
// listener closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("netproto: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		c := &serverConn{nc: nc, ctx: ctx, cancel: cancel}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cancel()
			_ = nc.Close()
			return nil
		}
		s.conns[c] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown stops accepting, waits up to grace for connections to drain,
// then severs the rest (cancelling their contexts so blocked lock waits
// unwind) and waits for the handlers to exit.
func (s *Server) Shutdown(grace time.Duration) {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.cancel()
		_ = c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(c *serverConn) {
	defer s.wg.Done()
	defer s.dropConn(c)
	r := bufio.NewReaderSize(c.nc, 32<<10)
	w := bufio.NewWriterSize(c.nc, 32<<10)
	var rbuf, wbuf []byte
	for {
		m, b, err := readMessage(r, rbuf)
		if err != nil {
			return
		}
		rbuf = b
		resp := s.handle(c, &m)
		wbuf, err = writeMessage(w, wbuf, &resp)
		if err != nil {
			return
		}
		// A burst of pipelined calls is answered with one write: replies
		// wait while a whole next request is already buffered.
		if codec.Buffered(r) {
			continue
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dropConn cleans up after a connection: its unprepared transactions
// abort (their owner can no longer decide for them), its prepared
// branches are disowned but stay alive awaiting the decision, and its
// read branches release their pins.
func (s *Server) dropConn(c *serverConn) {
	c.cancel()
	_ = c.nc.Close()
	var ends []*branch
	s.mu.Lock()
	delete(s.conns, c)
	for id := range s.branches.live {
		if a := s.branches.step(id, branchEvent{kind: evDrop, conn: c}); a.do != none {
			ends = append(ends, a.b)
		}
	}
	s.mu.Unlock()
	for _, b := range ends {
		if b.read != nil {
			_ = b.read.Abort()
		} else {
			_ = b.tx.Abort()
		}
	}
}

// errMsg builds an error response.
func errMsg(err error) message {
	return message{typ: msgErr, flag: codeOf(err), a: err.Error()}
}

// handle dispatches one request.  It takes s.mu only for table lookups,
// never across a blocking core call.
func (s *Server) handle(c *serverConn, m *message) message {
	switch m.typ {
	case msgHello:
		if m.n != protoVersion {
			return errMsg(fmt.Errorf("netproto: protocol version %d, want %d", m.n, protoVersion))
		}
		state := byte(stateServing)
		if s.Recovering() {
			state = stateRecovering
		}
		return message{typ: msgHelloResp, n: protoVersion, ts: uint64(s.shard), flag: state, ids: []string{fmt.Sprint(s.shards)}}

	case msgRegister:
		entries, err := decodeRegistrations(m.ids)
		if err == nil {
			err = s.register(entries)
		}
		if err != nil {
			return errMsg(err)
		}
		return message{typ: msgOK}

	case msgCall, msgCommit, msgPrepare, msgDecide, msgAbort, msgTxStatus, msgReadBegin, msgReadActivate, msgReadCall, msgReadComplete:
		return s.handleBranch(c, m)

	case msgStats:
		blob, err := json.Marshal(s.sys.Stats())
		if err != nil {
			return errMsg(err)
		}
		return message{typ: msgBlob, blob: blob}

	case msgPending:
		var ids []string
		for _, b := range s.Branches() {
			if b.State == stateNames[branchRecovered] {
				ids = append(ids, b.ID)
			}
		}
		return message{typ: msgTxList, ids: ids}

	case msgSetScheme:
		// A scheme switch is a re-registration under another scheme: the
		// same path makes it durable.
		o := s.sys.LookupObject(histories.ObjID(m.obj))
		if o == nil {
			return errMsg(fmt.Errorf("netproto: no object %q on shard %d", m.obj, s.shard))
		}
		if err := s.register([]CatalogEntry{{Name: m.obj, TypeName: o.Spec().Name(), Scheme: m.a}}); err != nil {
			return errMsg(err)
		}
		return message{typ: msgOK}

	case msgPing:
		return message{typ: msgOK}
	}
	return errMsg(fmt.Errorf("netproto: unknown message type %d", m.typ))
}

// register creates or idempotently re-opens a batch of objects.  Every
// entry is checked first, and one bad entry refuses the whole batch.  The
// entries that change something — a new object, or an existing one moving
// to another scheme — then go to the catalog with one write and one fsync,
// and only after that are the objects created or switched.  So the catalog
// is durable before the batch is acknowledged, and before any WAL record
// can name one of its objects.
func (s *Server) register(entries []CatalogEntry) error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	var changed []CatalogEntry
	var existing []*core.Object // changed[i]'s object, nil when new
	for _, e := range entries {
		if e.Scheme == "" {
			e.Scheme = "hybrid"
		}
		d, ok := baseline.DescriptorFor(e.TypeName)
		if !ok {
			return errNotBuiltin(e.Name, e.TypeName)
		}
		if d.Policies.Get(e.Scheme) == nil {
			return fmt.Errorf("netproto: object %q: type %s has no %q scheme (have %v)", e.Name, e.TypeName, e.Scheme, d.Policies.Schemes())
		}
		o := s.sys.LookupObject(histories.ObjID(e.Name))
		if o != nil {
			if o.Spec().Name() != e.TypeName {
				return fmt.Errorf("netproto: object %q already registered as %s, not %s", e.Name, o.Spec().Name(), e.TypeName)
			}
			if st := o.Stats(); st.Scheme == e.Scheme && !st.PendingSwitch {
				continue
			}
		}
		changed = append(changed, e)
		existing = append(existing, o)
	}
	if s.opts.Catalog != nil {
		if err := s.opts.Catalog.AppendBatch(changed); err != nil {
			return err
		}
	}
	for i, e := range changed {
		var err error
		if o := existing[i]; o != nil {
			err = o.SetScheme(e.Scheme)
		} else {
			_, err = RegisterObject(s.sys, e.Name, e.TypeName, e.Scheme)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// errNotBuiltin refuses a registration whose type does not travel the wire.
func errNotBuiltin(name, typeName string) error {
	return fmt.Errorf("netproto: object %q: no built-in type %q (custom specifications cannot travel the wire; register them in the shard process)", name, typeName)
}

// RegisterObject registers an object of a built-in type on sys under the
// type's three-scheme policy set, compiled once per process and shared by
// every object of the type (baseline.DescriptorFor) — the shard-side half
// of a client's registration, also used to replay the catalog at startup.
func RegisterObject(sys *core.System, name, typeName, scheme string) (*core.Object, error) {
	if scheme == "" {
		scheme = "hybrid"
	}
	d, ok := baseline.DescriptorFor(typeName)
	if !ok {
		return nil, errNotBuiltin(name, typeName)
	}
	return sys.NewObjectPolicies(name, d.Spec, d.Policies, scheme)
}

// handleBranch runs one request on a branch.  A branch binds to its
// first request's connection context, so a dead client unblocks its own
// lock waits.  A fast-path commit serializes above the request's ts, the
// largest decision the client has sent this shard, which may not be
// applied here yet.  A decided commit is acknowledged only once its
// commit record reached the log, so the coordinator may retire it.
func (s *Server) handleBranch(c *serverConn, m *message) message {
	id, ts, kind := histories.TxID(m.tx), histories.Timestamp(m.ts), requestEvents[m.typ]
	s.mu.Lock()
	a := s.resolveLocked(id, s.branches.step(id, branchEvent{kind: kind, conn: c, closed: s.closed, ts: ts}))
	switch a.do {
	case doBegin:
		a.b.tx, a.b.since = s.sys.BeginBranch(c.ctx, id), time.Now()
	case doReadBegin:
		a.b.read, a.b.since = s.sys.BeginReadOnlyBranch(c.ctx, id), time.Now()
	}
	s.mu.Unlock()
	var lower histories.Timestamp
	ev := branchEvent{ts: ts}
	switch a.do {
	case doBegin, doCall, doReadCall:
		o := s.sys.LookupObject(histories.ObjID(m.obj))
		if o == nil {
			return errMsg(fmt.Errorf("netproto: no object %q on shard %d", m.obj, s.shard))
		}
		var res string
		var err error
		if a.do == doReadCall {
			res, err = o.ReadCall(a.b.read, spec.Invocation{Name: m.a, Arg: m.b})
		} else {
			res, err = o.Call(a.b.tx, spec.Invocation{Name: m.a, Arg: m.b})
		}
		if err != nil {
			return errMsg(err)
		}
		return message{typ: msgRes, a: res}
	case doReadBegin:
		return message{typ: msgTS, ts: uint64(a.b.read.ClockBound())}
	case doActivate:
		a.b.read.ActivateAt(ts)
	case doReadEnd:
		if m.flag == 1 {
			_ = a.b.read.Commit()
		} else {
			_ = a.b.read.Abort()
		}
	case doAbort:
		_ = a.b.tx.Abort()
	case doCommitAbove:
		ev.kind, ev.err = evCommitted, a.b.tx.CommitAbove(ts)
		ev.ts, _ = a.b.tx.Timestamp()
	case doPrepare:
		a.b.tx.SetParticipants(int(m.n))
		lower, ev.err = a.b.tx.Prepare()
		ev.kind, ev.at = evVoted, time.Now()
	case doCommitAt:
		ev.kind, ev.err = evApplied, a.b.tx.CommitAt(ts)
	}
	if ev.kind != evCall { // evCall, the zero kind, marks no result to report
		s.mu.Lock()
		a = s.branches.step(id, ev)
		s.mu.Unlock()
	}
	switch {
	case kind == evStatus:
		return message{typ: msgOutcome, flag: a.out.status, ts: uint64(a.out.ts)}
	case a.err != nil:
		return errMsg(a.err)
	case kind == evPrepare && ev.kind == evVoted && ev.err == nil:
		return message{typ: msgVote, flag: 1, ts: uint64(lower)}
	case kind == evPrepare:
		return message{typ: msgVote, flag: 0}
	case kind == evCommit:
		return message{typ: msgTS, ts: uint64(a.ts)}
	}
	return message{typ: msgOK}
}

// requestEvents is the branch event each request is.
var requestEvents = map[byte]branchEvKind{
	msgCall: evCall, msgCommit: evCommit, msgPrepare: evPrepare, msgDecide: evDecide, msgAbort: evAbort, msgTxStatus: evStatus,
	msgReadBegin: evReadBegin, msgReadActivate: evReadActivate, msgReadCall: evReadCall, msgReadComplete: evReadComplete,
}

// resolveLocked makes the recovery calls a names, reporting each result,
// and returns the first action that names none.  They run under s.mu (or
// before Serve): the core's resolve and replay are single-threaded.
func (s *Server) resolveLocked(id histories.TxID, a branchAction) branchAction {
	for {
		ev := branchEvent{kind: evResolved, ts: a.ts}
		switch a.do {
		case doResolve:
			ev.err = s.sys.ResolvePending(id, a.ts)
		case doAbandon:
			ev.err = s.sys.AbandonPendingTx(id)
		case doFinish:
			ev.kind, ev.err = evFinished, s.sys.FinishRecovery()
		default:
			return a
		}
		a = s.branches.step(id, ev)
	}
}
