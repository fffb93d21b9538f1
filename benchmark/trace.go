package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// spanKind names a span.  The benchmark records spans from its own files,
// around its calls into each layer; nothing inside the engine is timed.
type spanKind uint8

const (
	spanTx       spanKind = iota // root of an update transaction: Begin entry → Commit return, retries included
	spanSnapshot                 // root of a read-only transaction
	spanGen                      // plan generation (outside the root, same transaction id)
	spanBegin                    // Begin / BeginReadOnly
	spanCall                     // one typed-wrapper call of an update transaction
	spanRead                     // one ReadAt of a snapshot
	spanCommit                   // Commit of an update transaction
	spanClose                    // Commit of a read-only transaction
	spanAbort                    // Abort after a failed attempt
	spanBackoff                  // retry pause
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"tx", "snapshot", "gen", "begin", "call", "read", "commit", "close", "abort", "backoff"}

// span is one recorded interval.  Times are nanoseconds since the run
// started; parent is the index of the root span in the same client's
// slice, or -1 for a span with no parent.
type span struct {
	kind       spanKind
	tx         uint64
	parent     int32
	start, end int64
}

// maxSpansPerClient bounds the spans kept for the trace file; beyond it a
// span still feeds the per-kind histograms, so the layer numbers cover the
// whole traced run while the file stays a sample of its start.
const maxSpansPerClient = 1 << 16

// clientTrace is one client's span recorder: spans in memory, written out
// when the run ends, plus one duration histogram per span kind.
type clientTrace struct {
	client int
	spans  []span
	hists  [numSpanKinds]hist
	tx     uint64 // current transaction id
	root   int32  // index of the current root span, -1 when it was not kept
	seq    uint64
}

func newClientTrace(client int) *clientTrace {
	return &clientTrace{client: client, spans: make([]span, 0, maxSpansPerClient)}
}

// beginTx starts a new transaction id: client in the top bits, a per-client
// sequence below, so the spans of one transaction share an id that is
// unique in the run.
func (t *clientTrace) beginTx() {
	t.seq++
	t.tx = uint64(t.client)<<40 | t.seq
	t.root = -1
}

// lap records one span of the current transaction and returns its end, which
// is the next span's start.
func (t *clientTrace) lap(kind spanKind, start, end int64) int64 {
	t.hists[kind].record(end - start)
	if len(t.spans) < cap(t.spans) {
		parent := t.root
		if kind == spanGen {
			parent = -1
		}
		t.spans = append(t.spans, span{kind: kind, tx: t.tx, parent: parent, start: start, end: end})
	}
	return end
}

// openRoot reserves the root span so children recorded before it closes can
// name it as their parent.
func (t *clientTrace) openRoot(kind spanKind, start int64) {
	if len(t.spans) < cap(t.spans) {
		t.root = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: kind, tx: t.tx, parent: -1, start: start})
	}
}

func (t *clientTrace) closeRoot(kind spanKind, start, end int64) {
	t.hists[kind].record(end - start)
	if t.root >= 0 {
		t.spans[t.root].end = end
	}
}

// writeTrace writes every kept span as one JSON object per line.
func writeTrace(path string, traces []*clientTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range traces {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"client":%d,"tx":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				t.client, s.tx, i, s.parent, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// traceSummary merges the clients' span histograms.
type traceSummary struct {
	hists [numSpanKinds]hist
}

func summarize(traces []*clientTrace) *traceSummary {
	s := &traceSummary{}
	for _, t := range traces {
		for k := range t.hists {
			s.hists[k].merge(&t.hists[k])
		}
	}
	return s
}

// p returns a span kind's q-quantile in ns (0 with no samples).
func (s *traceSummary) p(kind spanKind, q float64) float64 {
	v, _ := s.hists[kind].quantile(q)
	return v
}

// roots is the number of transactions traced.
func (s *traceSummary) roots() uint64 { return s.hists[spanTx].n + s.hists[spanSnapshot].n }

// printBudget prints where a transaction's time goes: each span kind's
// total time per transaction and its share of the root spans' time.  Child
// spans are recorded back to back (one clock read ends a span and starts
// the next), so a root's self time — its duration minus its children — is
// the harness's own loop overhead and is listed as such.
func (s *traceSummary) printBudget(w io.Writer, name string) {
	n := float64(s.roots())
	if n == 0 {
		return
	}
	rootSum := float64(s.hists[spanTx].sum + s.hists[spanSnapshot].sum)
	fmt.Fprintf(w, "\nwhere a transaction's time goes — %s (traced run, %d transactions)\n", name, uint64(n))
	fmt.Fprintf(w, "  %-22s %12s %9s %12s %10s\n", "span", "ns/tx", "share", "p50 ns", "per tx")
	row := func(label string, sum float64, h *hist) {
		p50 := 0.0
		per := 0.0
		if h != nil {
			p50, _ = h.quantile(0.5)
			per = float64(h.n) / n
		}
		fmt.Fprintf(w, "  %-22s %12.0f %8.1f%% %12.0f %10.2f\n", label, sum/n, 100*sum/rootSum, p50, per)
	}
	fmt.Fprintf(w, "  %-22s %12.0f %9s\n", "generator (outside)", float64(s.hists[spanGen].sum)/n, "-")
	var children float64
	for _, k := range []spanKind{spanBegin, spanCall, spanRead, spanCommit, spanClose, spanAbort, spanBackoff} {
		h := &s.hists[k]
		if h.n == 0 {
			continue
		}
		children += float64(h.sum)
		row(spanNames[k], float64(h.sum), h)
	}
	row("harness (root self)", rootSum-children, nil)
	fmt.Fprintf(w, "  %-22s %12.0f %8.1f%%\n", "root (tx+snapshot)", rootSum/n, 100.0)
}
