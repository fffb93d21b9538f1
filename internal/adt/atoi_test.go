package adt

import (
	"strconv"
	"testing"
)

// FuzzAtoi pins the digit-loop decoder to strconv: for every string Atoi
// returns what strconv.ParseInt(s, 10, 64) returns, and it panics exactly
// when ParseInt reports an error.
func FuzzAtoi(f *testing.F) {
	for _, s := range []string{
		"", "0", "-0", "+1", "01", "-", "+", "7", "-7",
		"9223372036854775807", "-9223372036854775808", // int64 bounds
		"999999999999999999", "-999999999999999999", // the loop's longest
		"9223372036854775808", "-9223372036854775809", // 19-digit overflows
		"10000000000000000000", "-99999999999999999999", // 20 digits
		"١٢٣", "１２", "1٢", // non-ASCII digits
		"1_000", " 1", "1 ", "0x10", "--1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := strconv.ParseInt(s, 10, 64)
		got, panicked := atoiCatch(s)
		if panicked != (err != nil) {
			t.Fatalf("Atoi(%q) panicked = %v, ParseInt error = %v", s, panicked, err)
		}
		if err == nil && got != want {
			t.Fatalf("Atoi(%q) = %d, ParseInt = %d", s, got, want)
		}
	})
}

func atoiCatch(s string) (v int64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return Atoi(s), false
}
