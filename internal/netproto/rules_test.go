package netproto

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"hybridcc/internal/core"
	"hybridcc/internal/histories"
)

// checkRulesFile renders rows, each its inputs and then its outputs, one
// line each, sorted, below legend, and reports the lines that differ from
// file's.
func checkRulesFile(t *testing.T, file, legend string, rows [][]string) {
	t.Helper()
	var lines []string
	for _, r := range rows {
		lines = append(lines, strings.Join(r[:len(r)-1], " ")+" -> "+r[len(r)-1])
	}
	slices.Sort(lines)
	lines = append(strings.Split(legend, "\n"), lines...)
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	var diff []string
	for _, l := range lines {
		if !slices.Contains(want, l) {
			diff = append(diff, "+ "+l)
		}
	}
	for _, l := range want {
		if !slices.Contains(lines, l) {
			diff = append(diff, "- "+l)
		}
	}
	if len(diff) > 0 {
		t.Errorf("the rules differ from %s (+ new, - gone):\n%s\n"+
			"If the change is intended, update %s to match and say why in CHANGES.md.",
			file, strings.Join(diff, "\n"), file)
	}
}

// mergeRules merges, for each column in cols in turn, the rows that
// differ in that column only: the merged row joins their values with "|",
// or reads "*" when they are every value of domain(col, row).  A row is
// its inputs, then its outputs.
func mergeRules(rows [][]string, cols []int, domain func(col int, row []string) []string) [][]string {
	for _, col := range cols {
		var merged [][]string
		at := map[string]int{}
		for _, r := range rows {
			k := slices.Clone(r)
			k[col] = ""
			key := strings.Join(k, "\x00")
			if i, ok := at[key]; ok {
				merged[i][col] += "|" + r[col]
				continue
			}
			at[key] = len(merged)
			merged = append(merged, slices.Clone(r))
		}
		for _, r := range merged {
			if d := domain(col, r); d != nil && strings.Count(r[col], "|")+1 == len(d) {
				r[col] = "*"
			}
		}
		rows = merged
	}
	return rows
}

// branchRulesFile is branchTable.step written out: one line per class of
// inputs that step answers alike.
const branchRulesFile = "branchrules.txt"

const branchLegend = `# branchTable.step (branch.go) on every input, rendered by TestBranchRulesFile.
# Inputs: the event; branch T's state (- none) and owner (this: the event's connection); the core call's
# result the event reports; its timestamp; whether another branch is recovered; whether the server is
# closing; the outcome remembered for T.  a|b: either value; *: any.
# Outputs: the core call; T's state and owner after (=: unchanged, -: none); the outcome it comes to
# remember; a status probe's answer; the error (result: the core call's, passed on).
# event state owner result ts others closed outcome -> call state' owner' remembers answer error`

// ruleCols are the inputs of a branchrules.txt line, each with its values:
// the event; branch T's state ("-" for none) and owner, relative to the
// event's connection; the core call's result the event reports; the
// event's timestamp; whether another branch is recovered; whether the
// server is closing; and the outcome remembered for T.  The owners a state
// can have are narrowed by ownersOf.
var ruleCols = [...][]string{
	eventNames[:],
	append([]string{"-"}, stateNames[:]...),
	{"this", "other", "none"},
	{"nil", "done", "err"},
	{"0", "ts"},
	{"-", "others-recovered"},
	{"-", "closing"},
	{"-", "committed", "aborted"},
}

const (
	colEvent = iota
	colState
	colOwner
	colResult
	colTS
	colOthers
	colClosed
	colOutcome
	nCols
)

// ownersOf is the owners a branch in state can have: none once recovered,
// and a live connection while reading.
func ownersOf(state string) []string {
	switch state {
	case "-":
		return []string{"-"}
	case "recovered":
		return []string{"none"}
	case "reading":
		return []string{"this", "other"}
	}
	return ruleCols[colOwner]
}

// eventStates narrows the states some events find T in: the log is
// scanned into an empty table, and a core call's result finds its branch
// as the call's action left it.
var eventStates = map[string][]string{
	"recover": {"-"}, "scanned": {"-"},
	"committed": {"deciding"}, "applied": {"deciding"}, "resolved": {"recovered"},
}

var outcomeNames = map[byte]string{outcomeUnknown: "-", outcomeCommitted: "committed", outcomeAborted: "aborted", outcomePending: "pending"}

// TestBranchRulesFile runs step once on every combination of ruleCols'
// values and compares what it does with branchrules.txt: the core call
// the action names, T's state and owner after it, the outcome it comes to
// remember for T, a status probe's answer, and the error, by class.  Rows
// that differ in one input only and agree on the rest are merged, that
// input's values joined by "|", or "*" for all of them.
func TestBranchRulesFile(t *testing.T) {
	var rows [][]string
	var in [nCols]string
	var each func(col int)
	each = func(col int) {
		if col == nCols {
			rows = append(rows, append(in[:], branchRule(in)))
			return
		}
		values := ruleCols[col]
		switch {
		case col == colState && eventStates[in[colEvent]] != nil:
			values = eventStates[in[colEvent]]
		case col == colOwner:
			values = ownersOf(in[colState])
		}
		for _, v := range values {
			in[col] = v
			each(col + 1)
		}
	}
	each(0)

	rows = mergeRules(rows, []int{colOutcome, colTS, colResult, colClosed, colOthers, colOwner, colState}, func(col int, r []string) []string {
		switch {
		case col == colState && eventStates[r[colEvent]] != nil:
			return nil // the one state the event can find
		case col == colOwner:
			return ownersOf(r[colState])
		}
		return ruleCols[col]
	})
	checkRulesFile(t, branchRulesFile, branchLegend, rows)
}

// branchRule steps a table holding branch T as in says and renders what
// step does.
func branchRule(in [nCols]string) string {
	const id = histories.TxID("T")
	t := newTableForTest()
	this := &serverConn{}
	owners := map[string]*serverConn{"this": this, "other": {}}
	if i := slices.Index(stateNames[:], in[colState]); i >= 0 {
		t.set(id, &branch{owner: owners[in[colOwner]]}, branchState(i))
	}
	if in[colOthers] != "-" {
		t.set("U", &branch{}, branchRecovered)
	}
	if status := map[string]byte{"committed": outcomeCommitted, "aborted": outcomeAborted}[in[colOutcome]]; status != outcomeUnknown {
		t.remember(id, txOutcome{status: status, ts: 1})
	}
	before := t.outcomes[id]
	ev := branchEvent{
		kind:   branchEvKind(slices.Index(ruleCols[colEvent], in[colEvent])),
		conn:   this,
		closed: in[colClosed] != "-",
		err:    map[string]error{"done": core.ErrTxDone, "err": errLogged}[in[colResult]],
	}
	if in[colTS] == "ts" {
		ev.ts = 7
	}
	a := t.step(id, ev)

	state, owner := "-", "-"
	if b := t.live[id]; b != nil {
		state, owner = stateNames[b.state], "none"
		for name, c := range owners {
			if b.owner == c {
				owner = name
			}
		}
	}
	if state == in[colState] {
		state = "="
	}
	if owner == in[colOwner] {
		owner = "="
	}
	remembers := "-"
	if o := t.outcomes[id]; o != before {
		remembers = outcomeNames[o.status]
	}
	answer := "-"
	if ev.kind == evStatus {
		answer = outcomeNames[a.out.status]
	}
	return fmt.Sprintf("%s %s %s %s %s %s", callNames[a.do], state, owner, remembers, answer, errClass(a.err, ev.err))
}

// errClass names err by its class: the core call's result passed on, the
// recovering gate, a finished transaction, or the refusal's own message.
func errClass(err, result error) string {
	switch {
	case err == nil:
		return "-"
	case err == result:
		return "result"
	case errors.Is(err, ErrRecovering):
		return "recovering"
	case errors.Is(err, core.ErrTxDone):
		return "done"
	}
	msg, _, _ := strings.Cut(strings.TrimPrefix(err.Error(), "netproto: "), ";")
	return fmt.Sprintf("%q", msg)
}
