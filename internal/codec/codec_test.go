package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// frame is a valid frame of a 5-byte payload.
var frame = AppendFrame(nil, []byte("hello"))

func TestNext(t *testing.T) {
	badCRC := append([]byte(nil), frame...)
	badCRC[HeaderSize] ^= 0xff
	huge := binary.LittleEndian.AppendUint32(nil, 1<<20)
	huge = append(huge, frame[4:]...)
	cases := []struct {
		name    string
		data    []byte
		payload string
		reason  string
	}{
		{"whole frame", frame, "hello", ""},
		{"whole frame then more", append(append([]byte(nil), frame...), 1, 2, 3), "hello", ""},
		{"short header", frame[:5], "", "short frame header (5 bytes)"},
		{"implausible length", huge, "", "implausible payload length 1048576"},
		{"short payload", frame[:HeaderSize+3], "", "short payload (3 of 5 bytes)"},
		{"CRC mismatch", badCRC, "", "CRC mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, size, reason := Next(tc.data, 1024)
			if reason != tc.reason || string(payload) != tc.payload {
				t.Fatalf("Next = %q, %d, %q; want %q, reason %q", payload, size, reason, tc.payload, tc.reason)
			}
			if want := len(frame); reason == "" && size != want {
				t.Fatalf("size %d, want %d", size, want)
			}
		})
	}
}

func TestReadFrame(t *testing.T) {
	badCRC := append([]byte(nil), frame...)
	badCRC[len(badCRC)-1] ^= 0x01
	cases := []struct {
		name    string
		data    []byte
		limit   int
		payload string
		err     string // substring; "" for success
		is      error
	}{
		{"whole frame", frame, 1024, "hello", "", nil},
		{"over the limit", frame, 4, "", "frame length 5 exceeds limit 4", nil},
		{"CRC mismatch", badCRC, 1024, "", "frame CRC mismatch", nil},
		{"clean end", nil, 1024, "", "EOF", io.EOF},
		{"torn payload", frame[:HeaderSize+2], 1024, "", "unexpected EOF", io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := ReadFrame(bytes.NewReader(tc.data), nil, tc.limit)
			if tc.err == "" {
				if err != nil || string(payload) != tc.payload {
					t.Fatalf("ReadFrame = %q, %v; want %q", payload, err, tc.payload)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("ReadFrame error %v, want one containing %q", err, tc.err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("ReadFrame error %v is not %v", err, tc.is)
			}
		})
	}
}

// TestReadFrameReusesScratch: a payload that fits the scratch buffer is
// read into it.
func TestReadFrameReusesScratch(t *testing.T) {
	scratch := make([]byte, 0, 64)
	payload, err := ReadFrame(bytes.NewReader(frame), scratch, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &scratch[:1][0] {
		t.Fatal("payload did not reuse the scratch buffer")
	}
}

// TestBuffered is the server's pipelining rule: a reply waits only while a
// whole next request is already buffered.
func TestBuffered(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want bool
	}{
		{"empty", nil, false},
		{"part of a header", frame[:3], false},
		{"header and part of the payload", frame[:HeaderSize+2], false},
		{"whole frame", frame, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bufio.NewReader(bytes.NewReader(tc.data))
			_, _ = r.Peek(len(tc.data)) // fill the buffer with everything there is
			if got := Buffered(r); got != tc.want {
				t.Fatalf("Buffered = %v with %d bytes buffered, want %v", got, r.Buffered(), tc.want)
			}
		})
	}
}

func TestDecoder(t *testing.T) {
	buf := []byte{7}
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -5)
	buf = AppendString(buf, "abc")
	buf = binary.AppendUvarint(buf, 2) // a count of 2
	buf = AppendString(buf, "")        // an empty byte string
	d := NewDecoder("test", buf)
	if b, u, v, s, n, bs := d.Byte(), d.Uvarint(), d.Varint(), d.Str(), d.Count("item"), d.Bytes("blob"); b != 7 || u != 300 || v != -5 || s != "abc" || n != 2 || bs != nil {
		t.Fatalf("decoded %d %d %d %q %d %v", b, u, v, s, n, bs)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		read func(d *Decoder)
		data []byte
		err  string
	}{
		{"truncated byte", func(d *Decoder) { d.Byte() }, nil, "test: payload truncated"},
		{"bad uvarint", func(d *Decoder) { d.Uvarint() }, []byte{0x80}, "test: bad uvarint at offset 0"},
		{"bad varint", func(d *Decoder) { d.Varint() }, []byte{0x80}, "test: bad varint at offset 0"},
		{"long string", func(d *Decoder) { d.Str() }, []byte{9, 'a'}, "test: string length 9 exceeds payload"},
		{"long blob", func(d *Decoder) { d.Bytes("blob") }, []byte{9, 'a'}, "test: blob length 9 exceeds payload"},
		{"large count", func(d *Decoder) { d.Count("item") }, []byte{3, 0}, "test: item count 3 exceeds payload"},
		{"trailing bytes", func(d *Decoder) { d.Byte() }, []byte{1, 2}, "test: 1 trailing payload bytes"},
		{"first failure latches", func(d *Decoder) { d.Fail("first"); d.Byte(); d.Fail("second") }, nil, "test: first"},
	} {
		d := NewDecoder("test", tc.data)
		tc.read(&d)
		if err := d.Done(); err == nil || err.Error() != tc.err {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
	}
}
