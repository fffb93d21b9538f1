// Package netproto is the cluster's wire transport: a length-prefixed,
// CRC-framed message protocol over TCP (stdlib only) that carries the
// two-phase commit traffic of internal/commitproto — prepare, commit
// decision, abort — plus everything else a dialed cluster needs from a
// shard it does not share a process with: object registration, operation
// calls, single-shard fast-path commits, snapshot reads, statistics, and
// the recovery probes (pending-branch listing, transaction-status lookup)
// that make presumed abort work across process boundaries.
//
// Framing reuses the write-ahead log's idiom (internal/wal): every message
// is [payload length, uint32 LE][CRC32C of payload, uint32 LE][payload],
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
	"hash/crc32"
	"io"

	"hybridcc/internal/core"
)

// protoVersion is the handshake version; mismatched peers refuse each
// other instead of misparsing.  Version 2 made msgRegister a batch.
const protoVersion = 2

// castagnoli is the CRC32C table (hardware-accelerated, same polynomial
// the WAL frames use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-message framing overhead: payload length then
// payload CRC32C, both little-endian uint32.
const frameHeaderSize = 8

// maxPayload bounds one message; a larger length prefix marks the frame
// corrupt rather than an allocation request.
const maxPayload = 1 << 26

// Message types.  Requests and responses share one space; each request
// documents its expected response type.
const (
	msgHello        = iota + 1 // → msgHelloResp
	msgRegister                // → msgOK (ids: a batch of registrations)
	msgCall                    // → msgRes
	msgCommit                  // → msgTS (the shard-chosen timestamp)
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

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodePayload appends m's payload encoding (without framing) to buf.
func encodePayload(buf []byte, m *message) []byte {
	buf = append(buf, m.typ)
	buf = appendString(buf, m.tx)
	buf = appendString(buf, m.obj)
	buf = appendString(buf, m.a)
	buf = appendString(buf, m.b)
	buf = binary.AppendUvarint(buf, m.ts)
	buf = binary.AppendUvarint(buf, m.n)
	buf = append(buf, m.flag)
	buf = binary.AppendUvarint(buf, uint64(len(m.blob)))
	buf = append(buf, m.blob...)
	buf = binary.AppendUvarint(buf, uint64(len(m.ids)))
	for _, id := range m.ids {
		buf = appendString(buf, id)
	}
	return buf
}

// decoder is a bounds-checked cursor over one payload (the WAL's idiom).
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("netproto: payload truncated")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("netproto: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("netproto: string length %d exceeds payload", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("netproto: blob length %d exceeds payload", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return b
}

// decodePayload decodes one payload into a message.
func decodePayload(buf []byte) (message, error) {
	d := &decoder{buf: buf}
	var m message
	m.typ = d.byteVal()
	m.tx = d.str()
	m.obj = d.str()
	m.a = d.str()
	m.b = d.str()
	m.ts = d.uvarint()
	m.n = d.uvarint()
	m.flag = d.byteVal()
	m.blob = d.bytes()
	nIDs := d.uvarint()
	if d.err == nil && nIDs > uint64(len(buf)) {
		d.fail("netproto: id count %d exceeds payload", nIDs)
	}
	for i := uint64(0); i < nIDs && d.err == nil; i++ {
		m.ids = append(m.ids, d.str())
	}
	if d.err != nil {
		return m, d.err
	}
	if d.off != len(buf) {
		return m, fmt.Errorf("netproto: %d trailing payload bytes", len(buf)-d.off)
	}
	return m, nil
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
	payload := encodePayload(scratch[:0], m)
	if len(payload) > maxPayload {
		return payload, fmt.Errorf("netproto: message of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return payload, err
	}
	_, err := w.Write(payload)
	return payload, err
}

// readMessage reads and verifies one framed message, returning the
// (possibly grown) scratch buffer for reuse.
func readMessage(r *bufio.Reader, scratch []byte) (message, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return message{}, scratch, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxPayload {
		return message{}, scratch, fmt.Errorf("netproto: frame length %d exceeds limit", n)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	payload := scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return message{}, scratch, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return message{}, scratch, fmt.Errorf("netproto: frame CRC mismatch (got %08x want %08x)", got, want)
	}
	m, err := decodePayload(payload)
	return m, scratch, err
}
