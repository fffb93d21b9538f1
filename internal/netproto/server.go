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
// The server is the 2PC participant: Prepare freezes a branch and reports
// its vote and timestamp bound, a decision message commits it at the
// coordinator-chosen timestamp, an abort message rolls it back.  A
// connection that dies aborts its unprepared transactions (their client
// can no longer decide anything for them) but leaves prepared branches
// alive and disowned: under presumed abort, a prepared participant may
// not unilaterally abort, and the decision may arrive later on any
// connection — including a brand-new one after the coordinator redials.
//
// After a crash, a server whose WAL holds prepared-but-undecided branches
// starts in the recovering state: it answers handshakes, status probes,
// and resolution traffic only, refusing new work until every pending
// branch is resolved by a decision (commit at its timestamp) or an abort
// (presumed abort made explicit).  The moment the pending set drains, the
// committed log replays and the shard serves again.
type Server struct {
	sys    *core.System
	shard  int
	shards int
	opts   ServerOptions

	mu         sync.Mutex
	ln         net.Listener
	conns      map[*serverConn]bool
	txs        map[histories.TxID]*txEntry
	reads      map[histories.TxID]*readEntry
	outcomes   map[histories.TxID]txOutcome
	order      []histories.TxID
	recovering bool
	pending    map[histories.TxID]bool
	closed     bool

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

// txEntry tracks one update transaction's branch on this shard.
type txEntry struct {
	tx       *core.Tx
	owner    *serverConn // nil once disowned (prepared, connection lost)
	prepared bool
	// deciding marks a commit decision mid-apply: concurrent redeliveries
	// are refused (retried later) instead of racing the apply.
	deciding bool
	// failed marks a branch whose decided commit could not be made
	// durable (CommitAt failed — the shard's log is likely poisoned).
	// The entry is kept so status probes answer pending, never a lying
	// committed; every redelivery is refused until the process restarts
	// and recovery resolves the branch from its prepared record.
	failed bool
}

// readEntry tracks one read-only branch.
type readEntry struct {
	r     *core.ReadTx
	owner *serverConn
}

// txOutcome is a remembered completion, for status probes.
type txOutcome struct {
	status byte
	ts     histories.Timestamp
}

// outcomeCap bounds the remembered-outcome ring; older outcomes are
// forgotten (probes then answer unknown, which callers treat as presumed
// abort only when the shard has no trace at all).
const outcomeCap = 65536

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
		txs:      make(map[histories.TxID]*txEntry),
		reads:    make(map[histories.TxID]*readEntry),
		outcomes: make(map[histories.TxID]txOutcome),
	}
	for tx := range sys.RecoveredCommittedSeq() {
		s.rememberLocked(tx.ID, txOutcome{status: outcomeCommitted, ts: tx.TS})
	}
	pend := sys.RecoveredPending()
	if len(pend) == 0 {
		if err := sys.FinishRecovery(); err != nil {
			return nil, err
		}
		return s, nil
	}
	s.recovering = true
	s.pending = make(map[histories.TxID]bool, len(pend))
	for _, tx := range pend {
		s.pending[tx.ID] = true
	}
	return s, nil
}

// Recovering reports whether the shard is still resolving recovered
// prepared branches.
func (s *Server) Recovering() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovering
}

// PendingBranches reports how many recovered prepared branches still
// await a decision from their coordinator.  It is nonzero only while
// Recovering; operators and the chaos runner use it to assert drain
// progress.
func (s *Server) PendingBranches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovering {
		return 0
	}
	return len(s.pending)
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

// rememberLocked records a completion in the bounded outcome ring.
// Callers hold s.mu (or run before Serve).
func (s *Server) rememberLocked(id histories.TxID, o txOutcome) {
	if _, ok := s.outcomes[id]; !ok {
		s.order = append(s.order, id)
		if len(s.order) > outcomeCap {
			delete(s.outcomes, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.outcomes[id] = o
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
	var aborts []*core.Tx
	var reads []*core.ReadTx
	s.mu.Lock()
	delete(s.conns, c)
	for id, e := range s.txs {
		if e.owner != c {
			continue
		}
		if e.prepared || e.deciding || e.failed {
			// Prepared (or decision-in-flight) branches may not die with
			// their connection: the decision is the coordinator's alone.
			e.owner = nil
			continue
		}
		aborts = append(aborts, e.tx)
		s.rememberLocked(id, txOutcome{status: outcomeAborted})
		delete(s.txs, id)
	}
	for id, e := range s.reads {
		if e.owner == c {
			reads = append(reads, e.r)
			delete(s.reads, id)
		}
	}
	s.mu.Unlock()
	for _, tx := range aborts {
		_ = tx.Abort()
	}
	for _, r := range reads {
		_ = r.Abort()
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
		s.mu.Lock()
		if s.recovering {
			state = stateRecovering
		}
		s.mu.Unlock()
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

	case msgCall:
		return s.handleCall(c, m)

	case msgCommit:
		return s.handleCommit(c, m)

	case msgAbort:
		return s.handleAbort(m)

	case msgPrepare:
		return s.handlePrepare(c, m)

	case msgDecide:
		return s.handleDecide(m)

	case msgReadBegin:
		if err := s.gate(); err != nil {
			return errMsg(err)
		}
		id := histories.TxID(m.tx)
		r := s.sys.BeginReadOnlyBranch(c.ctx, id)
		s.mu.Lock()
		s.reads[id] = &readEntry{r: r, owner: c}
		s.mu.Unlock()
		return message{typ: msgTS, ts: uint64(r.ClockBound())}

	case msgReadActivate:
		e := s.readEntryOf(histories.TxID(m.tx))
		if e == nil {
			return errMsg(fmt.Errorf("netproto: unknown read branch %s", m.tx))
		}
		e.r.ActivateAt(histories.Timestamp(m.ts))
		return message{typ: msgOK}

	case msgReadCall:
		e := s.readEntryOf(histories.TxID(m.tx))
		if e == nil {
			return errMsg(fmt.Errorf("netproto: unknown read branch %s", m.tx))
		}
		o := s.sys.LookupObject(histories.ObjID(m.obj))
		if o == nil {
			return errMsg(fmt.Errorf("netproto: no object %q on shard %d", m.obj, s.shard))
		}
		res, err := o.ReadCall(e.r, spec.Invocation{Name: m.a, Arg: m.b})
		if err != nil {
			return errMsg(err)
		}
		return message{typ: msgRes, a: res}

	case msgReadComplete:
		id := histories.TxID(m.tx)
		s.mu.Lock()
		e := s.reads[id]
		delete(s.reads, id)
		s.mu.Unlock()
		if e != nil {
			if m.flag == 1 {
				_ = e.r.Commit()
			} else {
				_ = e.r.Abort()
			}
		}
		return message{typ: msgOK}

	case msgStats:
		blob, err := json.Marshal(s.sys.Stats())
		if err != nil {
			return errMsg(err)
		}
		return message{typ: msgBlob, blob: blob}

	case msgPending:
		s.mu.Lock()
		ids := make([]string, 0, len(s.pending))
		for id := range s.pending {
			ids = append(ids, string(id))
		}
		s.mu.Unlock()
		return message{typ: msgTxList, ids: ids}

	case msgTxStatus:
		return s.handleTxStatus(m)

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

// gate refuses new work while recovering.
func (s *Server) gate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering {
		return ErrRecovering
	}
	if s.closed {
		return errors.New("netproto: server shutting down")
	}
	return nil
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

// readEntryOf looks up a read entry.
func (s *Server) readEntryOf(id histories.TxID) *readEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads[id]
}

// handleCall executes one operation, creating the transaction's branch on
// first touch.  The branch binds to the connection's context, so a dead
// client unblocks its own lock waits.
func (s *Server) handleCall(c *serverConn, m *message) message {
	if err := s.gate(); err != nil {
		return errMsg(err)
	}
	id := histories.TxID(m.tx)
	s.mu.Lock()
	e := s.txs[id]
	if e == nil {
		if o, done := s.outcomes[id]; done {
			s.mu.Unlock()
			return errMsg(fmt.Errorf("%w (outcome %d)", core.ErrTxDone, o.status))
		}
		e = &txEntry{tx: s.sys.BeginBranch(c.ctx, id), owner: c}
		s.txs[id] = e
	}
	if e.owner != c {
		s.mu.Unlock()
		return errMsg(fmt.Errorf("netproto: transaction %s owned by another connection", id))
	}
	tx := e.tx
	s.mu.Unlock()
	o := s.sys.LookupObject(histories.ObjID(m.obj))
	if o == nil {
		return errMsg(fmt.Errorf("netproto: no object %q on shard %d", m.obj, s.shard))
	}
	res, err := o.Call(tx, spec.Invocation{Name: m.a, Arg: m.b})
	if err != nil {
		return errMsg(err)
	}
	return message{typ: msgRes, a: res}
}

// handleCommit runs the single-shard fast path: a local commit drawing the
// shard clock's timestamp above the request's ts, no coordination.  The ts
// is the largest decision timestamp the client has sent this shard: the
// client may have returned that commit before the decision is applied
// here, and the branch must serialize after it.
func (s *Server) handleCommit(c *serverConn, m *message) message {
	id := histories.TxID(m.tx)
	s.mu.Lock()
	e := s.txs[id]
	if e == nil || e.owner != c {
		s.mu.Unlock()
		if e == nil {
			return errMsg(fmt.Errorf("%w: no branch of %s on shard %d", core.ErrTxDone, id, s.shard))
		}
		return errMsg(fmt.Errorf("netproto: transaction %s owned by another connection", id))
	}
	tx := e.tx
	s.mu.Unlock()
	if err := tx.CommitAbove(histories.Timestamp(m.ts)); err != nil {
		s.mu.Lock()
		s.rememberLocked(id, txOutcome{status: outcomeAborted})
		delete(s.txs, id)
		s.mu.Unlock()
		return errMsg(err)
	}
	ts, _ := tx.Timestamp()
	s.mu.Lock()
	s.rememberLocked(id, txOutcome{status: outcomeCommitted, ts: ts})
	delete(s.txs, id)
	s.mu.Unlock()
	return message{typ: msgTS, ts: uint64(ts)}
}

// handleAbort rolls a branch back.  Unknown transactions acknowledge
// idempotently (redelivered aborts, presumed-abort probes); while
// recovering, an abort resolves a pending prepared branch as the
// presumed-abort rule made explicit.
func (s *Server) handleAbort(m *message) message {
	id := histories.TxID(m.tx)
	s.mu.Lock()
	if s.recovering && s.pending[id] {
		// Resolution runs under s.mu: the core resolve/replay calls are
		// single-threaded by design, and nothing here can re-enter the
		// server.
		if err := s.sys.AbandonPendingTx(id); err != nil {
			s.mu.Unlock()
			return errMsg(err)
		}
		delete(s.pending, id)
		s.rememberLocked(id, txOutcome{status: outcomeAborted})
		if len(s.pending) == 0 {
			if err := s.sys.FinishRecovery(); err != nil {
				s.mu.Unlock()
				return errMsg(err)
			}
			s.recovering = false
		}
		s.mu.Unlock()
		return message{typ: msgOK}
	}
	e := s.txs[id]
	if e != nil && (e.deciding || e.failed) {
		// A commit decision for this branch is being applied (or failed to
		// apply durably): an abort now would contradict it.
		s.mu.Unlock()
		return errMsg(fmt.Errorf("netproto: %s has a commit decision in flight, abort refused", id))
	}
	if e != nil {
		s.rememberLocked(id, txOutcome{status: outcomeAborted})
		delete(s.txs, id)
	}
	s.mu.Unlock()
	if e != nil {
		_ = e.tx.Abort()
	}
	return message{typ: msgOK}
}

// handlePrepare votes on a branch: freeze it, log the vote durably, and
// report the timestamp bound.  Any failure — unknown branch, logging
// error — is a no vote.
func (s *Server) handlePrepare(c *serverConn, m *message) message {
	if err := s.gate(); err != nil {
		return errMsg(err)
	}
	id := histories.TxID(m.tx)
	s.mu.Lock()
	e := s.txs[id]
	if e == nil || (e.owner != nil && e.owner != c) {
		s.mu.Unlock()
		return message{typ: msgVote, flag: 0}
	}
	tx := e.tx
	s.mu.Unlock()
	tx.SetParticipants(int(m.n))
	lower, err := tx.Prepare()
	if err != nil {
		return message{typ: msgVote, flag: 0}
	}
	s.mu.Lock()
	e.prepared = true
	s.mu.Unlock()
	return message{typ: msgVote, flag: 1, ts: uint64(lower)}
}

// handleDecide applies a coordinator's commit decision at its timestamp.
// The acknowledgement means "durably applied": the branch's commit record
// reached the log (fsynced, when the shard runs with fsync on) before the
// OK goes out, which is what lets the coordinator retire the decision from
// its ledger once every shard acked.  Idempotent: a branch already
// resolved (or never seen — the decision outran every operation,
// impossible in-order but possible on redelivery after this shard already
// applied and forgot) acknowledges cleanly.
func (s *Server) handleDecide(m *message) message {
	id := histories.TxID(m.tx)
	ts := histories.Timestamp(m.ts)
	s.mu.Lock()
	if s.recovering && s.pending[id] {
		if err := s.sys.ResolvePending(id, ts); err != nil {
			s.mu.Unlock()
			return errMsg(err)
		}
		delete(s.pending, id)
		s.rememberLocked(id, txOutcome{status: outcomeCommitted, ts: ts})
		if len(s.pending) == 0 {
			if err := s.sys.FinishRecovery(); err != nil {
				s.mu.Unlock()
				return errMsg(err)
			}
			s.recovering = false
		}
		s.mu.Unlock()
		return message{typ: msgOK}
	}
	e := s.txs[id]
	if e == nil {
		// Already resolved and forgotten, or never seen: acknowledge
		// idempotently.
		s.mu.Unlock()
		return message{typ: msgOK}
	}
	if e.failed {
		s.mu.Unlock()
		return errMsg(fmt.Errorf("netproto: commit of %s decided but not durably applied (log failure); restart the shard to recover", id))
	}
	if e.deciding {
		s.mu.Unlock()
		return errMsg(fmt.Errorf("netproto: commit of %s already being applied", id))
	}
	e.deciding = true
	tx := e.tx
	s.mu.Unlock()
	// Apply BEFORE recording the outcome or forgetting the branch: a
	// failed CommitAt (log write error) must leave the entry in place, so
	// redelivery is refused rather than acked and probes answer pending —
	// recording success first would turn a lost commit into a lie.
	err := tx.CommitAt(ts)
	if err != nil && !errors.Is(err, core.ErrTxDone) {
		s.mu.Lock()
		e.deciding = false
		e.failed = true
		s.mu.Unlock()
		return errMsg(err)
	}
	s.mu.Lock()
	s.rememberLocked(id, txOutcome{status: outcomeCommitted, ts: ts})
	delete(s.txs, id)
	s.mu.Unlock()
	return message{typ: msgOK}
}

// handleTxStatus answers a fate probe: committed (with timestamp),
// aborted, still pending, or unknown.
func (s *Server) handleTxStatus(m *message) message {
	id := histories.TxID(m.tx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.outcomes[id]; ok {
		return message{typ: msgOutcome, flag: o.status, ts: uint64(o.ts)}
	}
	if _, ok := s.txs[id]; ok {
		return message{typ: msgOutcome, flag: outcomePending}
	}
	if s.pending[id] {
		return message{typ: msgOutcome, flag: outcomePending}
	}
	return message{typ: msgOutcome, flag: outcomeUnknown}
}
