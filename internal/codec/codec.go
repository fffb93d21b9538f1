// Package codec is the one byte format under the write-ahead log, its
// checkpoints, the shard catalog and the wire: frames of
//
//	[payload length, uint32 LE][CRC32C of payload, uint32 LE][payload]
//
// whose payloads are built from bytes, uvarints, varints and
// uvarint-length-prefixed strings.  Each user passes its own payload
// limit: a length prefix above it marks the frame corrupt rather than an
// allocation request.  A Decoder reads a payload with every length checked
// against the bytes actually present, so a truncated or corrupted payload
// is an error, never a panic or an oversized allocation.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the per-frame overhead: the payload length, then the
// payload's CRC32C.
const HeaderSize = 8

// castagnoli is the CRC32C table; Castagnoli has hardware support on the
// platforms this runs on and better error detection than IEEE.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StartFrame appends room for a frame header to dst.  The caller appends
// the payload behind it and seals the frame with EndFrame(buf, len(dst)),
// so a frame is built, and written, as one buffer.
func StartFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// EndFrame fills in the header of the frame that starts at buf[start:],
// whose payload is the rest of buf, and returns buf.
func EndFrame(buf []byte, start int) []byte {
	payload := buf[start+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// AppendFrame appends payload, framed, to dst.
func AppendFrame(dst, payload []byte) []byte {
	return EndFrame(append(StartFrame(dst), payload...), len(dst))
}

// Next checks the frame at the start of data.  A whole, intact frame
// returns its payload (aliasing data) and its size on disk, header
// included; anything else returns why not, worded for a torn-tail
// diagnostic: a short header, a length above limit, a short payload, or a
// CRC mismatch.
func Next(data []byte, limit int) (payload []byte, size int, reason string) {
	if len(data) < HeaderSize {
		return nil, 0, fmt.Sprintf("short frame header (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(limit) {
		return nil, 0, fmt.Sprintf("implausible payload length %d", n)
	}
	if uint64(len(data)-HeaderSize) < uint64(n) {
		return nil, 0, fmt.Sprintf("short payload (%d of %d bytes)", len(data)-HeaderSize, n)
	}
	payload = data[HeaderSize : HeaderSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, "CRC mismatch"
	}
	return payload, HeaderSize + int(n), ""
}

// ReadFrame reads and verifies one frame from r.  The header and the
// payload are read into scratch, which grows when the payload outgrows it;
// the caller passes the returned payload back as the next call's scratch.
// A read error is returned as r returned it (a clean end of stream is
// io.EOF).
func ReadFrame(r io.Reader, scratch []byte, limit int) ([]byte, error) {
	if cap(scratch) < HeaderSize {
		scratch = make([]byte, 0, 512)
	}
	hdr := scratch[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return scratch, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if uint64(n) > uint64(limit) {
		return scratch, fmt.Errorf("codec: frame length %d exceeds limit %d", n, limit)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	payload := scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return scratch, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return scratch, fmt.Errorf("codec: frame CRC mismatch (got %08x want %08x)", got, want)
	}
	return payload, nil
}

// Buffered reports whether a whole next frame already sits in r's buffer,
// so reading it will not block.
func Buffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < HeaderSize {
		return false
	}
	hdr, _ := r.Peek(HeaderSize)
	return uint64(n-HeaderSize) >= uint64(binary.LittleEndian.Uint32(hdr))
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// A Decoder is a bounds-checked cursor over one payload.  The first
// failure latches: every later read returns a zero value, and Err and Done
// report that failure.  Errors begin with the prefix the caller names.
type Decoder struct {
	prefix string
	buf    []byte
	off    int
	err    error
}

// NewDecoder returns a Decoder over buf whose errors begin with prefix.
func NewDecoder(prefix string, buf []byte) Decoder {
	return Decoder{prefix: prefix, buf: buf}
}

// Fail latches a failure unless one is already latched.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %s", d.prefix, fmt.Sprintf(format, args...))
	}
}

// Err returns the latched failure, if any.
func (d *Decoder) Err() error { return d.err }

// Done returns the latched failure, or an error if bytes remain unread.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("%d trailing payload bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.Fail("payload truncated")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Count reads the length of a collection of what, bounded by the payload
// length: every element takes at least one byte, so a larger count is
// corrupt, and the bound keeps a caller from sizing anything by it.
func (d *Decoder) Count(what string) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.Fail("%s count %d exceeds payload", what, n)
		return 0
	}
	return int(n)
}

// span reads a length prefix and returns that many following bytes,
// aliasing the payload.
func (d *Decoder) span(what string) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.Fail("%s length %d exceeds payload", what, n)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.span("string")) }

// Bytes reads a length-prefixed byte string of what into a fresh slice;
// an empty one reads as nil.
func (d *Decoder) Bytes(what string) []byte {
	b := d.span(what)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
