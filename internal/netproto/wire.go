// Package netproto is the cluster's wire transport: a length-prefixed,
// CRC-framed message protocol over TCP (stdlib only) that carries the
// two-phase commit traffic of internal/commitproto — prepare, commit
// decision, abort — plus everything else a dialed cluster needs from a
// shard it does not share a process with: object registration, operation
// calls, single-shard fast-path commits, snapshot reads, statistics, and
// the recovery probes (pending-branch listing, transaction-status lookup)
// that make presumed abort work across process boundaries.
//
// Framing is the write-ahead log's (internal/codec): every message is
// [payload length, uint32 LE][CRC32C of payload, uint32 LE][payload],
// strings are uvarint-length-prefixed, and decoding is bounds-checked, so
// a truncated or corrupted frame is detected rather than misparsed.  The
// payload starts with a one-byte message type; every message carries the
// same field tuple (most empty for any given type), which keeps the codec
// a single schema with no per-type branching to get wrong.
//
// The failure model is presumed abort, end to end: the only decision a
// coordinator logs or a client ledger remembers is commit.  A shard that
// crashes and recovers with prepared-but-undecided branches serves only
// recovery traffic until each branch is resolved by a decision message or
// abandoned by an abort message (no record anywhere means abort); a
// client that cannot learn a commit's fate reports the outcome unknown
// rather than guessing.
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"

	"hybridcc/internal/codec"
	"hybridcc/internal/core"
)

// protoVersion is the handshake version; mismatched peers refuse each
// other instead of misparsing.  Version 2 made msgRegister a batch;
// version 3 makes msgCommit's ts a lower bound the shard must commit above.
const protoVersion = 3

// maxPayload bounds one message; a larger length prefix marks the frame
// corrupt rather than an allocation request.
const maxPayload = 1 << 26

// Message types.  Requests and responses share one space; each request
// documents its expected response type.
const (
	msgHello        = iota + 1 // → msgHelloResp
	msgRegister                // → msgOK (ids: a batch of registrations)
	msgCall                    // → msgRes
	msgCommit                  // → msgTS (the shard-chosen timestamp, above ts)
	msgAbort                   // → msgOK (idempotent: unknown tx is OK)
	msgPrepare                 // → msgVote
	msgDecide                  // → msgOK (idempotent)
	msgReadBegin               // → msgTS (the shard clock bound)
	msgReadActivate            // → msgOK
	msgReadCall                // → msgRes
	msgReadComplete            // → msgOK
	msgStats                   // → msgBlob (JSON core.StatsSnapshot)
	msgPending                 // → msgTxList (undecided prepared branches)
	msgTxStatus                // → msgOutcome
	msgSetScheme               // → msgOK
	msgPing                    // → msgOK

	msgOK        = iota + 17
	msgRes       // res carries the granted response
	msgTS        // ts carries a timestamp
	msgVote      // flag: 1 yes / 0 no; ts carries the lower bound
	msgHelloResp // n: proto version; ts: shard index; flag: state
	msgBlob      // blob carries opaque bytes
	msgTxList    // ids carries transaction identifiers
	msgOutcome   // flag: outcome status; ts: commit timestamp
	msgErr       // flag: error code; a: message text
)

// Shard serving states (msgHelloResp.flag).
const (
	stateServing    = 0
	stateRecovering = 1
)

// Transaction outcome statuses (msgOutcome.flag).
const (
	outcomeUnknown   = 0 // never seen, or forgotten
	outcomeCommitted = 1
	outcomeAborted   = 2
	outcomePending   = 3 // still in progress (active or prepared)
)

// Error codes (msgErr.flag): the server maps core sentinels onto codes and
// the client maps them back, so errors.Is works across the wire and the
// public retry loop treats a remote timeout exactly like a local one.
const (
	errCodeGeneric = iota
	errCodeTimeout
	errCodeDeadlock
	errCodeTxDone
	errCodeTxBusy
	errCodeNotReadOnly
	errCodeExternalTS
	errCodeRecovering
	errCodeUnknownObject
	errCodeBadRegister
)

// ErrRecovering reports an operation refused because the shard is still
// resolving recovered prepared branches; the condition clears once every
// branch is decided or abandoned.
var ErrRecovering = errors.New("netproto: shard recovering, prepared branches unresolved")

// ErrUnavailable reports a shard that could not be reached or answered
// with a transport-level failure; the public retry loop treats it as
// retryable (the transaction aborted or will resolve by presumed abort).
var ErrUnavailable = errors.New("netproto: shard unavailable")

// codeOf classifies an error for the wire.
func codeOf(err error) byte {
	switch {
	case errors.Is(err, core.ErrTimeout):
		return errCodeTimeout
	case errors.Is(err, core.ErrDeadlock):
		return errCodeDeadlock
	case errors.Is(err, core.ErrTxDone):
		return errCodeTxDone
	case errors.Is(err, core.ErrTxBusy):
		return errCodeTxBusy
	case errors.Is(err, core.ErrNotReadOnly):
		return errCodeNotReadOnly
	case errors.Is(err, core.ErrExternalTS):
		return errCodeExternalTS
	case errors.Is(err, ErrRecovering):
		return errCodeRecovering
	default:
		return errCodeGeneric
	}
}

// errOf rebuilds a client-side error from a wire code and message,
// wrapping the matching sentinel so errors.Is sees through it.
func errOf(code byte, msg string) error {
	switch code {
	case errCodeTimeout:
		return fmt.Errorf("%w (remote: %s)", core.ErrTimeout, msg)
	case errCodeDeadlock:
		return fmt.Errorf("%w (remote: %s)", core.ErrDeadlock, msg)
	case errCodeTxDone:
		return core.ErrTxDone
	case errCodeTxBusy:
		return fmt.Errorf("%w (remote: %s)", core.ErrTxBusy, msg)
	case errCodeNotReadOnly:
		return fmt.Errorf("%w (remote: %s)", core.ErrNotReadOnly, msg)
	case errCodeExternalTS:
		return fmt.Errorf("%w (remote: %s)", core.ErrExternalTS, msg)
	case errCodeRecovering:
		return fmt.Errorf("%w: %s", ErrRecovering, msg)
	default:
		return fmt.Errorf("netproto: remote error: %s", msg)
	}
}

// message is the one wire schema: every message type populates a subset of
// these fields and leaves the rest zero (a zero field costs one byte on
// the wire).  tx/obj/a/b are strings (a/b are generic operands: invocation
// name and argument for calls, the scheme for a scheme switch, the message
// text for errors); ts and n are unsigned integers; flag is a small enum;
// blob is opaque bytes; ids is a string list (transaction identifiers, or
// a registration batch's flattened entries).
type message struct {
	typ  byte
	tx   string
	obj  string
	a, b string
	ts   uint64
	n    uint64
	flag byte
	blob []byte
	ids  []string
}

// encodePayload appends m's payload encoding (without framing) to buf.
func encodePayload(buf []byte, m *message) []byte {
	buf = append(buf, m.typ)
	buf = codec.AppendString(buf, m.tx)
	buf = codec.AppendString(buf, m.obj)
	buf = codec.AppendString(buf, m.a)
	buf = codec.AppendString(buf, m.b)
	buf = binary.AppendUvarint(buf, m.ts)
	buf = binary.AppendUvarint(buf, m.n)
	buf = append(buf, m.flag)
	buf = binary.AppendUvarint(buf, uint64(len(m.blob)))
	buf = append(buf, m.blob...)
	buf = binary.AppendUvarint(buf, uint64(len(m.ids)))
	for _, id := range m.ids {
		buf = codec.AppendString(buf, id)
	}
	return buf
}

// decodePayload decodes one payload into a message.
func decodePayload(buf []byte) (message, error) {
	d := codec.NewDecoder("netproto", buf)
	var m message
	m.typ = d.Byte()
	m.tx = d.Str()
	m.obj = d.Str()
	m.a = d.Str()
	m.b = d.Str()
	m.ts = d.Uvarint()
	m.n = d.Uvarint()
	m.flag = d.Byte()
	m.blob = d.Bytes("blob")
	nIDs := d.Count("id")
	for i := 0; i < nIDs && d.Err() == nil; i++ {
		m.ids = append(m.ids, d.Str())
	}
	return m, d.Done()
}

// encodeRegistrations flattens a registration batch into msgRegister's ids:
// name, type and scheme of each entry in turn.
func encodeRegistrations(entries []CatalogEntry) []string {
	ids := make([]string, 0, 3*len(entries))
	for _, e := range entries {
		ids = append(ids, e.Name, e.TypeName, e.Scheme)
	}
	return ids
}

// decodeRegistrations is encodeRegistrations' inverse.  A list that is not
// whole entries, an entry without a name, or a name given twice is an
// error.
func decodeRegistrations(ids []string) ([]CatalogEntry, error) {
	if len(ids)%3 != 0 {
		return nil, fmt.Errorf("netproto: register batch of %d strings is not (name, type, scheme) entries", len(ids))
	}
	entries := make([]CatalogEntry, 0, len(ids)/3)
	names := make(map[string]bool, len(ids)/3)
	for i := 0; i < len(ids); i += 3 {
		if ids[i] == "" {
			return nil, fmt.Errorf("netproto: register batch entry %d has no name", i/3)
		}
		if names[ids[i]] {
			return nil, fmt.Errorf("netproto: register batch names object %q twice", ids[i])
		}
		names[ids[i]] = true
		entries = append(entries, CatalogEntry{Name: ids[i], TypeName: ids[i+1], Scheme: ids[i+2]})
	}
	return entries, nil
}

// writeMessage frames and writes one message, returning the (possibly
// grown) scratch buffer for reuse.  The caller flushes.
func writeMessage(w *bufio.Writer, scratch []byte, m *message) ([]byte, error) {
	frame := encodePayload(codec.StartFrame(scratch[:0]), m)
	if n := len(frame) - codec.HeaderSize; n > maxPayload {
		return frame, fmt.Errorf("netproto: message of %d bytes exceeds limit", n)
	}
	_, err := w.Write(codec.EndFrame(frame, 0))
	return frame, err
}

// readMessage reads and verifies one framed message, returning the
// (possibly grown) scratch buffer for reuse.
func readMessage(r *bufio.Reader, scratch []byte) (message, []byte, error) {
	payload, err := codec.ReadFrame(r, scratch, maxPayload)
	if err != nil {
		return message{}, payload, err
	}
	m, err := decodePayload(payload)
	return m, payload, err
}
