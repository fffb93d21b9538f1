package adt

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hybridcc/internal/codec"
	"hybridcc/internal/spec"
)

// This file implements spec.DurableSpec for every built-in type, so
// checkpoints store each object's committed state as a compact blob
// instead of the operation history that produced it.  Encodings are
// deterministic — map-backed states sort their keys — because a
// checkpoint must not depend on iteration order, and minimal: a varint
// for numeric states, uvarint-length-prefixed strings for collections.

var (
	_ spec.DurableSpec = Account{}
	_ spec.DurableSpec = Counter{}
	_ spec.DurableSpec = Queue{}
	_ spec.DurableSpec = Semiqueue{}
	_ spec.DurableSpec = Set{}
	_ spec.DurableSpec = Directory{}
	_ spec.DurableSpec = File{}
)

// encodeStrings renders a string slice in the given order.
func encodeStrings(items []string) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(items)))
	for _, it := range items {
		buf = codec.AppendString(buf, it)
	}
	return buf
}

func decodeStrings(data []byte) ([]string, error) {
	d := codec.NewDecoder("adt", data)
	n := d.Count("state")
	var items []string
	for i := 0; i < n && d.Err() == nil; i++ {
		items = append(items, d.Str())
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return items, nil
}

// EncodeState implements spec.DurableSpec.
func (Account) EncodeState(s spec.State) ([]byte, error) {
	return binary.AppendVarint(nil, s.(accountState).bal), nil
}

// DecodeState implements spec.DurableSpec.
func (Account) DecodeState(data []byte) (spec.State, error) {
	d := codec.NewDecoder("adt", data)
	bal := d.Varint()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if bal < 0 {
		return nil, fmt.Errorf("adt: negative account balance %d", bal)
	}
	return accountState{bal: bal}, nil
}

// EncodeState implements spec.DurableSpec.
func (Counter) EncodeState(s spec.State) ([]byte, error) {
	return binary.AppendVarint(nil, s.(counterState).n), nil
}

// DecodeState implements spec.DurableSpec.
func (Counter) DecodeState(data []byte) (spec.State, error) {
	d := codec.NewDecoder("adt", data)
	n := d.Varint()
	if err := d.Done(); err != nil {
		return nil, err
	}
	return counterState{n: n}, nil
}

// EncodeState implements spec.DurableSpec.
func (Queue) EncodeState(s spec.State) ([]byte, error) {
	return encodeStrings(s.(queueState).items), nil
}

// DecodeState implements spec.DurableSpec.
func (Queue) DecodeState(data []byte) (spec.State, error) {
	items, err := decodeStrings(data)
	if err != nil {
		return nil, err
	}
	return queueState{items: items}, nil
}

// EncodeState implements spec.DurableSpec.
func (Semiqueue) EncodeState(s spec.State) ([]byte, error) {
	return encodeStrings(s.(semiqueueState).items), nil
}

// DecodeState implements spec.DurableSpec.
func (Semiqueue) DecodeState(data []byte) (spec.State, error) {
	items, err := decodeStrings(data)
	if err != nil {
		return nil, err
	}
	if !sort.StringsAreSorted(items) {
		return nil, fmt.Errorf("adt: semiqueue state blob not sorted")
	}
	return semiqueueState{items: items}, nil
}

// EncodeState implements spec.DurableSpec.
func (Set) EncodeState(s spec.State) ([]byte, error) {
	st := s.(setState)
	members := make([]string, 0, len(st.members))
	for m := range st.members {
		members = append(members, m)
	}
	sort.Strings(members)
	return encodeStrings(members), nil
}

// DecodeState implements spec.DurableSpec.
func (Set) DecodeState(data []byte) (spec.State, error) {
	items, err := decodeStrings(data)
	if err != nil {
		return nil, err
	}
	members := make(map[string]bool, len(items))
	for _, m := range items {
		members[m] = true
	}
	if len(members) != len(items) {
		return nil, fmt.Errorf("adt: duplicate member in set state blob")
	}
	return setState{members: members}, nil
}

// EncodeState implements spec.DurableSpec.
func (Directory) EncodeState(s spec.State) ([]byte, error) {
	st := s.(dirState)
	keys := make([]string, 0, len(st.bind))
	for k := range st.bind {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		buf = codec.AppendString(buf, k)
		buf = codec.AppendString(buf, st.bind[k])
	}
	return buf, nil
}

// DecodeState implements spec.DurableSpec.
func (Directory) DecodeState(data []byte) (spec.State, error) {
	d := codec.NewDecoder("adt", data)
	n := d.Count("state")
	bind := make(map[string]string, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		v := d.Str()
		if d.Err() == nil {
			if _, dup := bind[k]; dup {
				return nil, fmt.Errorf("adt: duplicate key %q in directory state blob", k)
			}
			bind[k] = v
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return dirState{bind: bind}, nil
}

// EncodeState implements spec.DurableSpec.
func (File) EncodeState(s spec.State) ([]byte, error) {
	return codec.AppendString(nil, s.(fileState).val), nil
}

// DecodeState implements spec.DurableSpec.
func (File) DecodeState(data []byte) (spec.State, error) {
	d := codec.NewDecoder("adt", data)
	val := d.Str()
	if err := d.Done(); err != nil {
		return nil, err
	}
	return fileState{val: val}, nil
}
