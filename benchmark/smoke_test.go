package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs the one command as a user would, only shorter: every
// workload untraced, traced and recorded, every probe, every correctness
// check, for 0.2 s each.  It keeps the harness compiling and honest; the
// numbers of so short a run mean nothing and are not looked at.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns hybrid-shardd processes")
	}
	dir := t.TempDir()
	// run.sh builds hybrid-shardd for the benchmark; the test does the same.
	// Like run.sh it runs in the benchmark's module directory, which
	// resolves the hybridcc module through go.mod's replace directive.
	shardd := filepath.Join(dir, "hybrid-shardd")
	if out, err := exec.Command("go", "build", "-o", shardd, "hybridcc/cmd/hybrid-shardd").CombinedOutput(); err != nil {
		t.Fatalf("go build hybrid-shardd: %v\n%s", err, out)
	}
	ps := newProcSet()
	defer ps.cleanup()
	o := &options{workload: "all", seed: 1, seconds: 0.2, trace: "both",
		outDir: filepath.Join(dir, "out"), shardd: shardd, commit: "test"}
	var stdout, stderr bytes.Buffer
	e, err := newEnv(o, ps, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	e.setups = 1 // a wire set-up takes a second or two, and the test has six passes of them
	if err := e.run(o, &stdout); err != nil {
		t.Fatalf("benchmark failed: %v\n%s", err, stderr.String())
	}

	res, err := readResults(filepath.Join(o.outDir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("%d runs in the result file, want 1", len(res.Runs))
	}
	for _, w := range workloads {
		row := res.Runs[0].Workloads[w.name]
		if row == nil {
			t.Fatalf("%s: no result row", w.name)
		}
		if !row.Correct || row.Attempted == 0 || row.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, row.Correct, row.Attempted, row.Failed)
		}
		if missing := row.EndToEnd.missing(endToEnd); len(missing) > 0 {
			t.Errorf("%s: end-to-end metrics missing: %v", w.name, missing)
		}
		if missing := row.PerLayer.missing(perLayer); len(missing) > 0 {
			t.Errorf("%s: per-layer metrics missing: %v", w.name, missing)
		}
		for _, d := range endToEnd {
			if v := row.EndToEnd[d.name]; v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: %s = %v %q, want a positive number of %s", w.name, d.name, v.Value, v.Unit, d.unit)
			}
		}
		if !strings.Contains(stdout.String(), "where a transaction's time goes — "+w.name) {
			t.Errorf("%s: no budget table printed", w.name)
		}
		checkTrace(t, filepath.Join(o.outDir, "trace-"+w.name+".jsonl"))
	}
	m := res.Runs[0].Workloads["wire-single"].PerLayer
	if got := m["netproto.round_trips_per_tx"].Value; got < 2.9 || got > 3.5 {
		t.Errorf("wire-single: %.2f round trips per transaction, want 3 (two calls and a fast-path commit)", got)
	}
	if got := m["cluster.fastpath_share"].Value; got != 1 {
		t.Errorf("single-shard plan on the in-process cluster: fast-path share %v, want 1", got)
	}
	if got := m["core.timeouts"].Value; got != 0 {
		t.Errorf("mem-hot: %v lock-wait timeouts on a deadlock-free workload", got)
	}
}

// checkTrace checks that the spans of one transaction share an id and name
// a root span of the same transaction as their parent.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	type line struct {
		Client, Span, Parent int
		Tx                   uint64
		Name                 string
		Start                int64 `json:"start_ns"`
		End                  int64 `json:"end_ns"`
	}
	type key struct{ client, span int }
	roots := make(map[key]line)
	var spans []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		if l.End < l.Start {
			t.Errorf("%s: span %+v ends before it starts", path, l)
		}
		if l.Name == "tx" || l.Name == "snapshot" {
			roots[key{l.Client, l.Span}] = l
		}
		spans = append(spans, l)
	}
	if len(roots) == 0 {
		t.Errorf("%s: no root spans", path)
	}
	for _, l := range spans {
		if l.Parent < 0 {
			continue
		}
		root, ok := roots[key{l.Client, l.Parent}]
		if !ok || root.Tx != l.Tx {
			t.Errorf("%s: span %+v names parent %d, which is not the root of its transaction", path, l, l.Parent)
			return
		}
		if l.Start < root.Start || l.End > root.End {
			t.Errorf("%s: span %+v lies outside its root %+v", path, l, root)
			return
		}
	}
}

// TestSingleWorkloadResultLine runs the command the driver runs and checks
// the shape of its last line.
func TestSingleWorkloadResultLine(t *testing.T) {
	dir := t.TempDir()
	ps := newProcSet()
	defer ps.cleanup()
	o := &options{workload: "mem-readmix", seed: 3, seconds: 0.2, trace: "0",
		outDir: dir, shardd: "unused", commit: "test"}
	var stdout, stderr bytes.Buffer
	if err := run(o, ps, &stdout, &stderr); err != nil {
		t.Fatalf("benchmark failed: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
	}
	if len(got.Metrics) != len(endToEnd) || len(got.Metrics.missing(endToEnd)) > 0 {
		t.Errorf("with -trace 0 the metrics must be exactly the end-to-end ones, got %v", got.Metrics)
	}
}

// TestBenchmarkJSONAgrees checks the contract file at the repository root
// against the tables the program reports from.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := decl.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.gate {
			t.Errorf("end-to-end metric %d: declared %+v, program has %+v", i, d, m)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program has %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := decl.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer metric %d: declared %+v, program has %+v", i, d, m)
		}
	}
}
