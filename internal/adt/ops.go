package adt

import (
	"strconv"
	"strings"

	"hybridcc/internal/spec"
)

// Response constants shared by the data types.
const (
	ResOk        = "Ok"
	ResOverdraft = "Overdraft"
	ResPresent   = "Present"
	ResAbsent    = "Absent"
	ResBound     = "Bound"
	ResTrue      = "True"
	ResFalse     = "False"
)

// Interned single-response slices.  Responses sits on the runtime's
// per-call hot path, and most answers are one of these constants: sharing
// the slices saves an allocation per call.  Responses results are
// immutable by the spec.Spec contract, so sharing is safe.
var (
	respOk        = []string{ResOk}
	respOverdraft = []string{ResOverdraft}
	respPresent   = []string{ResPresent}
	respAbsent    = []string{ResAbsent}
	respBound     = []string{ResBound}
	respTrue      = []string{ResTrue}
	respFalse     = []string{ResFalse}
)

// okIf is a ConstantResponse: Ok when the invocation has it, else none.
func okIf(constant bool) (string, bool) {
	if constant {
		return ResOk, true
	}
	return "", false
}

// atLeast reports whether arg encodes an integer ≥ min.
func atLeast(arg string, min int64) bool {
	n, err := strconv.ParseInt(arg, 10, 64)
	return err == nil && n >= min
}

// Itoa encodes an integer value for use as an operation argument or
// response.
func Itoa(v int64) string { return strconv.FormatInt(v, 10) }

// Atoi decodes an integer value encoded by Itoa.  It panics on malformed
// input; encoded values are produced only by this package and the facade.
// Up to 18 digits cannot overflow and decode in a loop; anything else takes
// strconv.ParseInt, whose value it returns and whose errors panic.
func Atoi(s string) int64 {
	d := strings.TrimPrefix(s, "-")
	v, i := int64(0), 0
	for ; i < len(d) && i < 18 && d[i]-'0' <= 9; i++ {
		v = v*10 + int64(d[i]-'0')
	}
	if len(d) == 0 || i < len(d) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			panic("adt: malformed encoded integer " + strconv.Quote(s))
		}
		return v
	}
	if len(d) < len(s) {
		return -v
	}
	return v
}

// --- File operations (Table I) ---

// FileWrite returns the operation [Write(v), Ok].
func FileWrite(v int64) spec.Op { return spec.Op{Name: "Write", Arg: Itoa(v), Res: ResOk} }

// FileRead returns the operation [Read(), v].
func FileRead(v int64) spec.Op { return spec.Op{Name: "Read", Res: Itoa(v)} }

// FileWriteInv returns the invocation Write(v).
func FileWriteInv(v int64) spec.Invocation { return spec.Invocation{Name: "Write", Arg: Itoa(v)} }

// FileReadInv returns the invocation Read().
func FileReadInv() spec.Invocation { return spec.Invocation{Name: "Read"} }

// --- Queue operations (Tables II and III) ---

// Enq returns the operation [Enq(v), Ok].
func Enq(v int64) spec.Op { return spec.Op{Name: "Enq", Arg: Itoa(v), Res: ResOk} }

// Deq returns the operation [Deq(), v].
func Deq(v int64) spec.Op { return spec.Op{Name: "Deq", Res: Itoa(v)} }

// EnqInv returns the invocation Enq(v).
func EnqInv(v int64) spec.Invocation { return spec.Invocation{Name: "Enq", Arg: Itoa(v)} }

// DeqInv returns the invocation Deq().
func DeqInv() spec.Invocation { return spec.Invocation{Name: "Deq"} }

// --- Semiqueue operations (Table IV) ---

// Ins returns the operation [Ins(v), Ok].
func Ins(v int64) spec.Op { return spec.Op{Name: "Ins", Arg: Itoa(v), Res: ResOk} }

// Rem returns the operation [Rem(), v].
func Rem(v int64) spec.Op { return spec.Op{Name: "Rem", Res: Itoa(v)} }

// InsInv returns the invocation Ins(v).
func InsInv(v int64) spec.Invocation { return spec.Invocation{Name: "Ins", Arg: Itoa(v)} }

// RemInv returns the invocation Rem().
func RemInv() spec.Invocation { return spec.Invocation{Name: "Rem"} }

// --- Account operations (Tables V and VI) ---

// Credit returns the operation [Credit(n), Ok].
func Credit(n int64) spec.Op { return spec.Op{Name: "Credit", Arg: Itoa(n), Res: ResOk} }

// Post returns the operation [Post(k), Ok]; the balance is multiplied by k.
func Post(k int64) spec.Op { return spec.Op{Name: "Post", Arg: Itoa(k), Res: ResOk} }

// Debit returns the successful operation [Debit(n), Ok].
func Debit(n int64) spec.Op { return spec.Op{Name: "Debit", Arg: Itoa(n), Res: ResOk} }

// Overdraft returns the refused operation [Debit(n), Overdraft].
func Overdraft(n int64) spec.Op { return spec.Op{Name: "Debit", Arg: Itoa(n), Res: ResOverdraft} }

// CreditInv returns the invocation Credit(n).
func CreditInv(n int64) spec.Invocation { return spec.Invocation{Name: "Credit", Arg: Itoa(n)} }

// PostInv returns the invocation Post(k).
func PostInv(k int64) spec.Invocation { return spec.Invocation{Name: "Post", Arg: Itoa(k)} }

// DebitInv returns the invocation Debit(n).
func DebitInv(n int64) spec.Invocation { return spec.Invocation{Name: "Debit", Arg: Itoa(n)} }

// --- Counter operations ---

// Inc returns the operation [Inc(n), Ok].
func Inc(n int64) spec.Op { return spec.Op{Name: "Inc", Arg: Itoa(n), Res: ResOk} }

// CtrRead returns the operation [CtrRead(), v].
func CtrRead(v int64) spec.Op { return spec.Op{Name: "CtrRead", Res: Itoa(v)} }

// IncInv returns the invocation Inc(n).
func IncInv(n int64) spec.Invocation { return spec.Invocation{Name: "Inc", Arg: Itoa(n)} }

// CtrReadInv returns the invocation CtrRead().
func CtrReadInv() spec.Invocation { return spec.Invocation{Name: "CtrRead"} }

// --- Set operations ---

// SetInsert returns [Insert(v), Ok] (v was absent) when fresh is true, and
// [Insert(v), Present] otherwise.
func SetInsert(v int64, fresh bool) spec.Op {
	res := ResOk
	if !fresh {
		res = ResPresent
	}
	return spec.Op{Name: "Insert", Arg: Itoa(v), Res: res}
}

// SetRemove returns [Remove(v), Ok] (v was present) when found is true, and
// [Remove(v), Absent] otherwise.
func SetRemove(v int64, found bool) spec.Op {
	res := ResOk
	if !found {
		res = ResAbsent
	}
	return spec.Op{Name: "Remove", Arg: Itoa(v), Res: res}
}

// SetMember returns [Member(v), True] or [Member(v), False].
func SetMember(v int64, present bool) spec.Op {
	res := ResTrue
	if !present {
		res = ResFalse
	}
	return spec.Op{Name: "Member", Arg: Itoa(v), Res: res}
}

// SetInsertInv returns the invocation Insert(v).
func SetInsertInv(v int64) spec.Invocation { return spec.Invocation{Name: "Insert", Arg: Itoa(v)} }

// SetRemoveInv returns the invocation Remove(v).
func SetRemoveInv(v int64) spec.Invocation { return spec.Invocation{Name: "Remove", Arg: Itoa(v)} }

// SetMemberInv returns the invocation Member(v).
func SetMemberInv(v int64) spec.Invocation { return spec.Invocation{Name: "Member", Arg: Itoa(v)} }

// --- Directory operations ---

// dirArg encodes the two-argument Bind invocation.
func dirArg(key string, v int64) string { return key + "=" + Itoa(v) }

// DirBind returns [Bind(k=v), Ok] when fresh is true (k was unbound) and
// [Bind(k=v), Bound] otherwise.
func DirBind(key string, v int64, fresh bool) spec.Op {
	res := ResOk
	if !fresh {
		res = ResBound
	}
	return spec.Op{Name: "Bind", Arg: dirArg(key, v), Res: res}
}

// DirUnbind returns [Unbind(k), Ok] when found is true and
// [Unbind(k), Absent] otherwise.
func DirUnbind(key string, found bool) spec.Op {
	res := ResOk
	if !found {
		res = ResAbsent
	}
	return spec.Op{Name: "Unbind", Arg: key, Res: res}
}

// DirLookup returns [Lookup(k), v]; a missing binding responds Absent.
func DirLookup(key string, v int64, found bool) spec.Op {
	res := ResAbsent
	if found {
		res = Itoa(v)
	}
	return spec.Op{Name: "Lookup", Arg: key, Res: res}
}

// DirBindInv returns the invocation Bind(k=v).
func DirBindInv(key string, v int64) spec.Invocation {
	return spec.Invocation{Name: "Bind", Arg: dirArg(key, v)}
}

// DirUnbindInv returns the invocation Unbind(k).
func DirUnbindInv(key string) spec.Invocation { return spec.Invocation{Name: "Unbind", Arg: key} }

// DirLookupInv returns the invocation Lookup(k).
func DirLookupInv(key string) spec.Invocation { return spec.Invocation{Name: "Lookup", Arg: key} }
