package netproto

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"hybridcc/internal/codec"
)

// FuzzDecodePayload feeds the payload decoder hostile bytes: it must not
// panic, must not size anything by a length prefix it has not checked
// against the bytes actually present (every decoded byte is copied out of
// the payload, so the decoded message can never outweigh it), and whatever
// it accepts must survive a re-encode unchanged.  A register message's
// entry list goes through the entry decoder too, which must refuse a
// malformed list with an error and re-encode an accepted one unchanged.
func FuzzDecodePayload(f *testing.F) {
	full := encodePayload(nil, &fullMessage)
	f.Add(full)
	f.Add(encodePayload(nil, &message{typ: msgPing, tx: "T9"}))
	f.Add(encodePayload(nil, &message{typ: msgVote, flag: 1, ts: 10}))
	f.Add(encodePayload(nil, &message{typ: msgErr, flag: errCodeTimeout, a: "lock wait"}))
	f.Add(encodePayload(nil, &message{typ: msgRegister, ids: encodeRegistrations([]CatalogEntry{
		{Name: "a0", TypeName: "Account", Scheme: "hybrid"},
		{Name: "q", TypeName: "Queue", Scheme: "readwrite"},
	})}))
	// The corruption fixtures: a flipped payload bit, a trailing byte.
	flipped := append([]byte(nil), full...)
	flipped[2] ^= 0xff
	f.Add(flipped)
	f.Add(append(encodePayload(nil, &message{typ: msgPing}), 0x01))
	// Length prefixes that promise far more than the payload holds: a blob
	// of 2^40 bytes, 2^60 identifiers.
	prefix := []byte{msgBlob, 0, 0, 0, 0, 0, 0, 0} // typ, four empty strings, ts, n, flag
	f.Add(binary.AppendUvarint(append([]byte(nil), prefix...), 1<<40))
	f.Add(binary.AppendUvarint(append(append([]byte(nil), prefix...), 0), 1<<60))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodePayload(data)
		size := len(m.tx) + len(m.obj) + len(m.a) + len(m.b) + len(m.blob) + len(m.ids)
		for _, id := range m.ids {
			size += len(id)
		}
		if size > len(data) {
			t.Fatalf("decoded %d bytes of fields out of a %d-byte payload", size, len(data))
		}
		if err != nil {
			return
		}
		again, err := decodePayload(encodePayload(nil, &m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded message decodes to %+v, %v; want %+v", again, err, m)
		}
		if m.typ != msgRegister {
			return
		}
		entries, err := decodeRegistrations(m.ids)
		if err != nil {
			return
		}
		if ids := encodeRegistrations(entries); !slices.Equal(ids, m.ids) {
			t.Fatalf("register batch %q re-encodes to %q", m.ids, ids)
		}
	})
}

// FuzzCatalogEntry feeds the catalog loader one hostile entry payload,
// framed validly so that it gets past the CRC.  The loader must not panic
// and must not decode more than the payload holds.  It either stops before
// the frame, keeping an empty intact prefix, or reads one entry, which
// re-encodes to a frame that reads back equal.
func FuzzCatalogEntry(f *testing.F) {
	for _, e := range []CatalogEntry{
		{Name: "acct", TypeName: "Account", Scheme: "hybrid"},
		{Name: "q", TypeName: "Queue", Scheme: "readwrite"},
		{},
	} {
		f.Add(appendCatalogEntry(nil, e)[codec.HeaderSize:])
	}
	f.Add([]byte{4, 'a'})                                                                 // a name longer than the payload
	f.Add(binary.AppendUvarint(nil, 1<<60))                                               // a name of 2^60 bytes
	f.Add(append(appendCatalogEntry(nil, CatalogEntry{Name: "a"})[codec.HeaderSize:], 0)) // a trailing byte

	f.Fuzz(func(t *testing.T, payload []byte) {
		file := codec.AppendFrame(nil, payload)
		entries, valid := readCatalog(file)
		switch len(entries) {
		case 0:
			if valid != 0 {
				t.Fatalf("no entry, but an intact prefix of %d bytes", valid)
			}
		case 1:
			e := entries[0]
			if size := len(e.Name) + len(e.TypeName) + len(e.Scheme); size > len(payload) {
				t.Fatalf("decoded %d bytes of fields out of a %d-byte payload", size, len(payload))
			}
			if valid != int64(len(file)) {
				t.Fatalf("one entry, but an intact prefix of %d of %d bytes", valid, len(file))
			}
			if again, _ := readCatalog(appendCatalogEntry(nil, e)); !reflect.DeepEqual(again, entries) {
				t.Fatalf("re-encoded entry reads %+v; want %+v", again, entries)
			}
		default:
			t.Fatalf("%d entries from one frame", len(entries))
		}
	})
}
