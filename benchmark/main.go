// Command benchmark is the repository's benchmark: five workloads over the
// whole transaction path — in-memory lock manager, durable commit, and two
// real hybrid-shardd processes over loopback TCP — with end-to-end metrics
// from an untraced closed-loop run and per-layer metrics taken from
// outside (a traced run with the benchmark's own spans, Stats deltas,
// micro-probes of each layer's public API, a counting TCP proxy).  See
// README.md for the workloads, the metrics and the reasons for both.
//
//	bash benchmark/run.sh                          every workload, every metric
//	bash benchmark/run.sh -workload mem-hot -trace 0 -seed 7 -seconds 20
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// setups is the number of times an untraced run sets its system up;
	// setup_s is the median, so one slow spawn or fsync does not move it.
	setups = 5
	// An untraced run's loop starts with a discarded lead-in of one
	// warmShare-th of its measured length.
	warmShare = 20
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	clients  int
	force    bool
	outDir   string
	shardd   string
	result   string
	buildS   float64
	commit   string
	compare  bool
}

func main() {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the per-client PCG streams the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured run in seconds")
	fs.StringVar(&o.trace, "trace", "both", "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics; both")
	fs.IntVar(&o.clients, "clients", 0, "closed-loop client goroutines (default max(2, min(nproc, 4)))")
	fs.BoolVar(&o.force, "force", false, "allow more clients than processors")
	fs.StringVar(&o.outDir, "outdir", "out", "directory for WAL and shard directories, traces and results")
	fs.StringVar(&o.shardd, "shardd", "", "hybrid-shardd binary (run.sh builds it)")
	fs.StringVar(&o.result, "out", "", "result file to append this run to (default <outdir>/result.json when -workload all)")
	fs.Float64Var(&o.buildS, "build-s", 0, "seconds the caller spent building the binaries, reported as client.build_s")
	fs.StringVar(&o.commit, "commit", "unknown", "commit under test, recorded in the result")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	_ = fs.Parse(os.Args[1:])

	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	ps := newProcSet()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		ps.cleanup()
		os.Exit(130)
	}()
	err := run(&o, ps, os.Stdout, os.Stderr)
	ps.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// defaultClients is K = max(2, min(nproc, 4)): callers of the library are
// goroutines that each wait for their commit, and the generator shares the
// host with the system under test.
func defaultClients() int { return max(2, min(runtime.NumCPU(), 4)) }

// run executes the benchmark as the options say.  Tables go to stdout, and
// so does the result line of a single-workload run (last); progress goes
// to stderr.
func run(o *options, ps *procSet, stdout, stderr io.Writer) error {
	e, err := newEnv(o, ps, stderr)
	if err != nil {
		return err
	}
	return e.run(o, stdout)
}

// newEnv checks the options and prepares the scratch directory.
func newEnv(o *options, ps *procSet, stderr io.Writer) (*env, error) {
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: want a positive length", o.seconds)
	}
	if o.shardd == "" {
		return nil, errors.New("-shardd: name the hybrid-shardd binary (bash benchmark/run.sh builds it and does)")
	}
	clients := o.clients
	if clients == 0 {
		clients = defaultClients()
	} else if clients > runtime.NumCPU() && !o.force {
		return nil, fmt.Errorf("-clients %d exceeds the %d processors of this host: the generator would queue behind itself (use -force to run anyway)", clients, runtime.NumCPU())
	}
	outDir, err := filepath.Abs(o.outDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &env{outDir: outDir, shardd: o.shardd, clients: clients, setups: setups, seed: o.seed, ps: ps, log: stderr}, nil
}

func (e *env) run(o *options, stdout io.Writer) error {
	rec := runRecord{
		Host: hostOf(o.commit, e.outDir),
		Config: runConfig{Seed: o.seed, Seconds: o.seconds, Clients: e.clients, Setups: e.setups,
			WarmupTx: warmupTx, Trace: o.trace, FlushPolicy: "disk-commit: fsync every commit, solo; wire-*: shardd -fsync=false"},
		Workloads: make(map[string]*workloadResult),
	}
	seconds := time.Duration(o.seconds * float64(time.Second))

	if o.workload != "all" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("-workload %q: want one of %s, or all", o.workload, strings.Join(workloadNames(), ", "))
		}
		res, err := runOne(e, w, seconds, o.trace, o.buildS, e.log)
		if err != nil {
			return err
		}
		rec.Workloads[w.name] = res
		if o.result != "" {
			if err := appendRun(o.result, rec); err != nil {
				return err
			}
		}
		// The driver's contract: with -trace 0 exactly the end-to-end
		// metrics, with -trace 1 exactly the per-layer metrics.
		line := resultLine{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(metrics)}
		for k, v := range res.EndToEnd.only(endToEnd) {
			line.Metrics[k] = v
		}
		for k, v := range res.PerLayer {
			line.Metrics[k] = v
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, string(b))
		return err
	}

	if err := runAll(e, &rec, seconds, o.trace, o.buildS, stdout); err != nil {
		return err
	}
	result := o.result
	if result == "" {
		result = filepath.Join(e.outDir, "result.json")
	}
	if err := appendRun(result, rec); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nresult appended to %s\n", result)
	return nil
}

// Spec builders.  An untraced run measures for d after a discarded lead-in;
// a traced run has no lead-in (its numbers are span statistics) and its
// warm-up is the set-up's.
func timedSpec(w workload, d time.Duration, setups int) passSpec {
	return passSpec{w: w, measure: d, warm: d / warmShare, setups: setups, reopen: w.kind == sutDisk}
}

func tracedSpec(w workload, d time.Duration) passSpec {
	return passSpec{w: w, opts: sutOpts{traced: true}, measure: d, setups: 1}
}

// recordedSpec is the oracle's pass: traced like tracedSpec, with the
// engine's Recorder attached, ended after verifiedTx transactions (or a
// minute, if the system is that slow) and checked by Verify().  It is a
// pass of its own because the Recorder costs the engine more than half its
// throughput on mem-hot: span statistics taken with it attached would
// describe a system nobody runs.
func recordedSpec(w workload, clients int) passSpec {
	return passSpec{w: w, opts: sutOpts{traced: true, record: true}, measure: time.Minute, setups: 1,
		limit: int64(verifiedTx / clients)}
}

// measure runs a workload's own passes — the untraced one as timed says
// and, when traced is set, the traced and the recorded one — and starts its
// result row: the end-to-end metrics when wanted, and the transaction
// counts.
func measure(e *env, w workload, timed passSpec, traced time.Duration, trace string, out io.Writer) (passes, *workloadResult, error) {
	var ps passes
	var err error
	res := &workloadResult{Correct: true, PlanDigest: planDigest(w, e.seed, 0)}
	if ps.timed, err = runPass(e, timed); err != nil {
		return ps, nil, err
	}
	res.Attempted, res.Failed = ps.timed.attempted, ps.timed.failed
	if trace != "1" {
		res.EndToEnd = endToEndMetrics(ps.timed)
		res.EndToEnd.print(out, w.name+" — untraced run: end to end, and demoted")
	}
	if trace == "0" {
		return ps, res, nil
	}
	if ps.traced, err = runPass(e, tracedSpec(w, traced)); err != nil {
		return ps, nil, err
	}
	if ps.recorded, err = runPass(e, recordedSpec(w, e.clients)); err != nil {
		return ps, nil, err
	}
	res.Attempted += ps.traced.attempted + ps.recorded.attempted
	res.Failed += ps.traced.failed + ps.recorded.failed
	ps.traced.trace.printBudget(out, w.name)
	return ps, res, nil
}

// runOne runs one workload as the driver asks.  With trace 0 it makes the
// untraced run and reports the end-to-end metrics.  With trace 1 it
// reports every per-layer metric: the selected workload gets a short
// untraced run (the reference for the tracing overhead), the traced run and
// the recorded run; every other workload gets brief runs of its own so that
// the layer metrics tied to it are real measurements in every result; the
// probes run last.  "both" does both, with the untraced run at full length.
func runOne(e *env, w workload, d time.Duration, trace string, buildS float64, log io.Writer) (*workloadResult, error) {
	timed := timedSpec(w, d, e.setups)
	if trace == "1" {
		timed = timedSpec(w, d/5, 1)
	}
	own, res, err := measure(e, w, timed, d/4, trace, log)
	if err != nil || trace == "0" {
		return res, err
	}
	m := make(metrics)
	selectedMetrics(m, own, genNsPerTx(e, w), buildS)
	designatedMetrics(m, w.name, own)
	brief := briefOf(d)
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		var ps passes
		switch other.kind {
		case sutDisk:
			ps.timed, err = runPass(e, timedSpec(other, brief, 1))
		case sutWire:
			if ps.recorded, err = runPass(e, recordedSpec(other, e.clients)); err != nil {
				return nil, err
			}
			fallthrough
		default:
			ps.traced, err = runPass(e, tracedSpec(other, brief))
		}
		if err != nil {
			return nil, err
		}
		designatedMetrics(m, other.name, ps)
	}
	if err := runProbes(e, m, max(d/20, brief), brief); err != nil {
		return nil, err
	}
	if missing := m.missing(perLayer); len(missing) > 0 {
		return nil, fmt.Errorf("per-layer metrics not measured: %s", strings.Join(missing, ", "))
	}
	res.PerLayer = m
	printRungs(log, w, m)
	m.print(log, w.name+" — per layer (traced run, Stats deltas, probes)")
	return res, nil
}

// briefOf is the length of the short runs a traced invocation gives the
// workloads it was not asked about, and of the shortest probes.
func briefOf(d time.Duration) time.Duration { return max(d/40, 200*time.Millisecond) }

// runProbes runs every probe.
func runProbes(e *env, m metrics, group, cluster time.Duration) error {
	if err := probeLayers(m); err != nil {
		return err
	}
	if err := probeWAL(e, m); err != nil {
		return err
	}
	if err := probeGroup(e, group, m); err != nil {
		return err
	}
	return probeCluster(e, cluster, m)
}

// runAll is the one command: every workload, untraced, traced and recorded,
// the probes once, every metric printed by name with its unit.
func runAll(e *env, rec *runRecord, d time.Duration, trace string, buildS float64, out io.Writer) error {
	layers := make(metrics) // designated and probe metrics, the same in every workload's row
	all := make(map[string]passes)
	for _, w := range workloads {
		fmt.Fprintf(e.log, "running %s ...\n", w.name)
		ps, res, err := measure(e, w, timedSpec(w, d, e.setups), d/4, trace, out)
		if err != nil {
			return err
		}
		designatedMetrics(layers, w.name, ps)
		all[w.name], rec.Workloads[w.name] = ps, res
	}
	if trace == "0" {
		return nil
	}
	fmt.Fprintf(e.log, "running probes ...\n")
	brief := briefOf(d)
	if err := runProbes(e, layers, min(3*time.Second, max(d/4, brief)), min(time.Second, max(d/20, brief))); err != nil {
		return err
	}
	for _, w := range workloads {
		m := make(metrics)
		for k, v := range layers {
			m[k] = v
		}
		selectedMetrics(m, all[w.name], genNsPerTx(e, w), buildS)
		if missing := m.missing(perLayer); len(missing) > 0 {
			return fmt.Errorf("per-layer metrics not measured: %s", strings.Join(missing, ", "))
		}
		rec.Workloads[w.name].PerLayer = m
		printRungs(out, w, m)
		m.only(selectedDefs()).print(out, w.name+" — per layer, this workload's own")
	}
	layers.print(out, "per layer — tied to one workload's run or to a probe (see README.md)")
	return nil
}

// selectedDefs lists the per-layer metrics that describe the selected
// workload (the ones selectedMetrics fills).
func selectedDefs() []metricDef {
	var defs []metricDef
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "client.") || strings.HasPrefix(d.name, "verify.") ||
			d.name == "core.allocs_per_tx" || d.name == "core.bytes_per_tx" {
			defs = append(defs, d)
		}
	}
	return defs
}

// printRungs prints the rungs of a wire workload's budget: the same plan
// on an in-process cluster (no wire), the ping floor, and the dialed call
// and commit.
func printRungs(w io.Writer, wl workload, m metrics) {
	if wl.kind != sutWire {
		return
	}
	inproc, dialed := "cluster.single_commit_p50_us", "netproto.commit_single_p50_us"
	if wl.place == placeOtherShard {
		inproc, dialed = "cluster.cross_commit_p50_us", "netproto.commit_cross_p50_us"
	}
	fmt.Fprintf(w, "\nrungs of the %s budget (p50, us)\n", wl.name)
	fmt.Fprintf(w, "  %-44s %10.1f\n", "commit, in-process cluster (no wire)", m[inproc].Value)
	fmt.Fprintf(w, "  %-44s %10.1f\n", "ping round trip (wire floor)", m["netproto.ping_p50_us"].Value)
	fmt.Fprintf(w, "  %-44s %10.1f\n", "call, dialed", m["netproto.call_p50_us"].Value)
	fmt.Fprintf(w, "  %-44s %10.1f\n", "commit, dialed", m[dialed].Value)
}

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// hostInfo is the shape of the host a result was taken on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	WALDirFS   string `json:"wal_dir_fs"`
}

func hostOf(commit, outDir string) hostInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Kernel: kernel, WALDirFS: filesystemOf(outDir)}
}

// runConfig is the load model of a run.
type runConfig struct {
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Clients     int     `json:"clients"`
	Setups      int     `json:"setups"`
	WarmupTx    int     `json:"warmup_tx_per_client"`
	Trace       string  `json:"trace"`
	FlushPolicy string  `json:"flush_policy"`
}

// workloadResult is one workload's row of a run.
type workloadResult struct {
	Correct    bool    `json:"correct"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	PlanDigest string  `json:"plan_digest"`
	EndToEnd   metrics `json:"end_to_end,omitempty"`
	PerLayer   metrics `json:"per_layer,omitempty"`
}

// runRecord is one invocation of the benchmark.
type runRecord struct {
	Host      hostInfo                   `json:"host"`
	Config    runConfig                  `json:"config"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// resultFile is a set of runs of one commit: -compare needs several to
// tell a regression from run-to-run spread.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendRun adds rec to the result file at path, creating it if needed.
func appendRun(path string, rec runRecord) error {
	f, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
