package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// resultOf builds a result file whose runs report the given tx_per_s and
// tx_p50_us values for mem-hot and a 99th percentile of ten times the
// median, each run with 1000 transactions attempted and failed of them
// failed.
func resultOf(rates, p50s []float64, failed int64) resultFile {
	var f resultFile
	for i := range rates {
		e2e := make(metrics)
		e2e.set("tx_per_s", rates[i])
		e2e.set("tx_p50_us", p50s[i])
		e2e.set("client.tx_p99_us", 10*p50s[i])
		f.Runs = append(f.Runs, runRecord{Workloads: map[string]*workloadResult{
			"mem-hot": {Correct: true, Attempted: 1000, Failed: failed, EndToEnd: e2e},
		}})
	}
	return f
}

func TestVerdicts(t *testing.T) {
	rate := metricDef{name: "tx_per_s", better: "higher", bound: 0.08}
	lat := metricDef{name: "tx_p50_us", better: "lower", bound: 0.10}
	setup := metricDef{name: "setup_s", better: "lower", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"same", rate, steady, steady, "ok"},
		{"rate fell 5%, inside the bound", rate, steady, []float64{95, 96, 94, 95, 96}, "ok"},
		{"rate fell 20%", rate, steady, []float64{80, 81, 79, 80, 82}, "regressed"},
		{"rate rose", rate, steady, []float64{130, 131, 129, 130, 132}, "ok"},
		{"latency rose 20%", lat, steady, []float64{120, 121, 119, 120, 122}, "regressed"},
		{"latency fell", lat, steady, []float64{50, 51, 49, 50, 52}, "ok"},
		{"spread wider than the bound", rate, steady, []float64{60, 100, 80, 120, 70}, "unresolved"},
		{"single runs", rate, []float64{100}, []float64{80}, "regressed"},
		{"set-up of milliseconds doubled", setup, []float64{0.007, 0.0071, 0.0069}, []float64{0.014, 0.0141, 0.0139}, "ok"},
		{"set-up rose 20% and 0.2 s", setup, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, "ok"},
		{"set-up rose 40% and 0.4 s", setup, []float64{1, 1.01, 0.99}, []float64{1.4, 1.41, 1.39}, "regressed"},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	failingPath := filepath.Join(dir, "failing.json")
	for path, f := range map[string]resultFile{
		oldPath:     resultOf([]float64{100, 101, 99}, []float64{10, 10.1, 9.9}, 0),
		newPath:     resultOf([]float64{70, 71, 69}, []float64{10, 10.1, 9.9}, 0),
		failingPath: resultOf([]float64{100, 101, 99}, []float64{10, 10.1, 9.9}, 2),
	} {
		for _, r := range f.Runs {
			if err := appendRun(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a 30%% throughput loss was not reported:\n%s", out.String())
	}
	for _, want := range []string{"mem-hot", "tx_per_s", "regressed", "tx_p50_us", "client.tx_p99_us", "ok", "0.700 of 100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if regressed, err = compareFiles(&out, oldPath, failingPath); err != nil || !regressed {
		t.Errorf("2 failed transactions in 1000 were not reported: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err = compareFiles(&out, oldPath, oldPath); err != nil || regressed {
		t.Errorf("a file compared with itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}
