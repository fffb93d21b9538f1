package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef declares one metric.  BENCHMARK.json repeats these tables and
// the tests check that the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// End-to-end only, both a share of the parent's median by which the
	// metric may worsen.  bound is the issue's and is what -compare applies,
	// per workload, answering "unresolved" where the recorded runs spread
	// wider than it.  gate is BENCHMARK.json's, which the driver applies to
	// every workload alike and which therefore has to hold the spread of
	// the noisiest workload on the reference host (README.md has them).
	bound, gate float64
}

// endToEnd are the metrics a caller of the library sees, reported by every
// workload from its untraced run, each over the whole measured part of the
// run.  Three metrics of the issue are not here.  failed_share is carried by
// the result's attempted and failed counts (a gated metric may never be 0,
// and this one always is), reported as client.failed_share and checked by
// -compare.  peak_rss_mb and tx_p99_us were demoted to client.peak_rss_mb and
// client.tx_p99_us by the issue's own rule (README.md has the spreads): the
// first is mostly Go heap and follows the collector's pacing; the second
// sits on a knee of the latency distribution on mem-readmix and the wire
// workloads, so a slow minute of the host moves it two to three times as far
// as it moves the rate, past the largest gate the driver allows.
var endToEnd = []metricDef{
	{"tx_per_s", "1/s", "higher", 0.08, 0.25},
	{"tx_p50_us", "us", "lower", 0.10, 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.08, 0.25},
	{"setup_s", "s", "lower", 0.10, 0.25},
}

// demoted are reported with every untraced run beside the end-to-end metrics
// and compared by -compare under the issue's bound, but the driver does not
// gate them.
var demoted = []metricDef{
	{name: "client.tx_p99_us", unit: "us", better: "lower", bound: 0.10},
}

// -compare's two rules that BENCHMARK.json cannot express: set-up may get
// worse by its bound or by setupFloorS, whichever is larger (a volatile
// system sets up in milliseconds, where 10 % is a scheduling hiccup), and
// the share of failed transactions may rise by failedRise at most.
const (
	setupFloorS = 0.25
	failedRise  = 0.001
)

// perLayer are the metrics of single layers, all taken from outside: by
// timing calls into a layer's public functions, by differencing the Stats
// snapshots the layers export, and by the benchmark's counting proxy.  The
// prefix is the module the number belongs to.  Except for client.*,
// verify.* and core.*_per_tx, which describe the selected workload, each
// metric is tied to one workload's run or to a probe (see README.md), so it
// means the same thing in every result.
var perLayer = []metricDef{
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.tx_p99_us", unit: "us", better: "lower"},
	{name: "client.tx_p999_us", unit: "us", better: "lower"},
	{name: "client.failed_share", unit: "ratio", better: "lower"},
	{name: "client.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "client.retries_per_commit", unit: "ratio", better: "lower"},
	{name: "client.gen_ns_per_tx", unit: "ns", better: "lower"},
	{name: "client.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "client.build_s", unit: "s", better: "lower"},

	{name: "facade.empty_tx_ns", unit: "ns", better: "lower"},

	{name: "depend.blockmask_ns", unit: "ns", better: "lower"},
	{name: "depend.compile_ms", unit: "ms", better: "lower"},
	{name: "depend.classes", unit: "count", better: "lower"},

	{name: "ccpolicy.conflict_pairs.hybrid", unit: "count", better: "lower"},
	{name: "ccpolicy.conflict_pairs.commutativity", unit: "count", better: "lower"},
	{name: "ccpolicy.conflict_pairs.readwrite", unit: "count", better: "lower"},

	{name: "core.begin_ns", unit: "ns", better: "lower"},
	{name: "core.call_p50_ns", unit: "ns", better: "lower"},
	{name: "core.call_p99_ns", unit: "ns", better: "lower"},
	{name: "core.commit_p50_ns", unit: "ns", better: "lower"},
	{name: "core.commit_p99_ns", unit: "ns", better: "lower"},
	{name: "core.waits_per_call", unit: "ratio", better: "lower"},
	{name: "core.wait_us_per_wait", unit: "us", better: "lower"},
	{name: "core.wait_share", unit: "ratio", better: "lower"},
	{name: "core.spurious_wakeup_share", unit: "ratio", better: "lower"},
	{name: "core.timeouts", unit: "count", better: "lower"},
	{name: "core.aborts_per_commit", unit: "ratio", better: "lower"},
	{name: "core.allocs_per_tx", unit: "count", better: "lower"},
	{name: "core.bytes_per_tx", unit: "B", better: "lower"},
	{name: "core.snapshot_p50_ns", unit: "ns", better: "lower"},
	{name: "core.read_p50_ns", unit: "ns", better: "lower"},
	{name: "core.update_p50_ns", unit: "ns", better: "lower"},
	{name: "core.group_batch_size", unit: "count", better: "higher"},

	{name: "wal.fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.appends_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower"},
	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.fsync_p50_us", unit: "us", better: "lower"},
	{name: "wal.fsync_p99_us", unit: "us", better: "lower"},
	{name: "wal.batch8_sync_us", unit: "us", better: "lower"},
	{name: "wal.checkpoints", unit: "count", better: "higher"},
	{name: "wal.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "wal.reclaimed_bytes", unit: "B", better: "higher"},
	{name: "wal.reopen_ms", unit: "ms", better: "lower"},
	{name: "wal.replayed_records", unit: "count", better: "lower"},
	{name: "wal.group_tx_per_s", unit: "1/s", better: "higher"},
	{name: "wal.group_fsyncs_per_commit", unit: "ratio", better: "lower"},

	{name: "commitproto.round_p50_us", unit: "us", better: "lower"},

	{name: "cluster.single_commit_p50_us", unit: "us", better: "lower"},
	{name: "cluster.cross_commit_p50_us", unit: "us", better: "lower"},
	{name: "cluster.fastpath_share", unit: "ratio", better: "higher"},
	{name: "cluster.protocol_aborts", unit: "count", better: "lower"},

	{name: "netproto.ping_p50_us", unit: "us", better: "lower"},
	{name: "netproto.ping_p99_us", unit: "us", better: "lower"},
	{name: "netproto.call_p50_us", unit: "us", better: "lower"},
	{name: "netproto.commit_single_p50_us", unit: "us", better: "lower"},
	{name: "netproto.commit_cross_p50_us", unit: "us", better: "lower"},
	{name: "netproto.round_trips_per_tx", unit: "ratio", better: "lower"},
	{name: "netproto.bytes_per_tx", unit: "B", better: "lower"},
	{name: "netproto.segments_per_tx", unit: "ratio", better: "lower"},
	{name: "netproto.conns", unit: "count", better: "lower"},
	{name: "netproto.cross_round_trips_per_tx", unit: "ratio", better: "lower"},
	{name: "netproto.cross_bytes_per_tx", unit: "B", better: "lower"},
	{name: "netproto.cross_segments_per_tx", unit: "ratio", better: "lower"},

	{name: "shardd.spawn_ms", unit: "ms", better: "lower"},
	{name: "shardd.cpu_us_per_tx", unit: "us", better: "lower"},
	{name: "shardd.rss_mb", unit: "MiB", better: "lower"},
	{name: "shardd.waits_per_call", unit: "ratio", better: "lower"},
	{name: "shardd.fsyncs_per_commit", unit: "ratio", better: "lower"},

	{name: "tstamp.next_ns", unit: "ns", better: "lower"},

	{name: "verify.check_ms_per_ktx", unit: "ms", better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]value

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// set records a declared metric; an undeclared name is a bug in the
// benchmark.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m[name] = value{Value: v, Unit: unit}
}

// missing lists the metrics of defs that m lacks.
func (m metrics) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// only returns the metrics of m that defs declares.
func (m metrics) only(defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// print writes the metrics by name with their units, sorted.
func (m metrics) print(w io.Writer, title string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16s %s\n", n, formatValue(m[n].Value), m[n].Unit)
	}
}

// formatValue prints a measurement with all its digits but without
// exponent noise for the tables.
func formatValue(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics derives the end-to-end metrics, and the demoted one, from
// an untraced pass: the whole measured part of the run, nothing left out, so
// that a stall the engine causes — a checkpoint, a collection, a segment
// rotation — costs the run what it cost the callers.  What the host adds is
// left to the median over runs.
func endToEndMetrics(p *pass) metrics {
	m := make(metrics)
	p50, _ := p.lat.quantile(0.5)
	p99, _ := p.lat.quantile(0.99)
	m.set("tx_per_s", ratio(float64(p.committed), p.elapsed.Seconds()))
	m.set("tx_p50_us", us(p50))
	m.set("cpu_us_per_tx", ratio(float64(p.cpu)/1e3, float64(p.committed)))
	m.set("setup_s", median(p.setupS))
	m.set("client.tx_p99_us", us(p99))
	return m
}

// selectedMetrics fills the layer metrics that describe the selected
// workload itself: the harness's own bookkeeping, the allocation cost of a
// transaction, and the cost of the oracle.
func selectedMetrics(m metrics, ps passes, genNs, buildS float64) {
	timed, traced, recorded := ps.timed, ps.traced, ps.recorded
	p99, _ := timed.lat.quantile(0.99)
	p999, _ := timed.lat.quantile(0.999)
	m.set("client.samples", float64(timed.lat.n))
	m.set("client.tx_p99_us", us(p99))
	m.set("client.tx_p999_us", us(p999))
	m.set("client.failed_share", ratio(float64(timed.failed), float64(timed.attempted)))
	m.set("client.peak_rss_mb", timed.peakRSS)
	m.set("client.retries_per_commit", ratio(float64(timed.retries), float64(timed.committed)))
	m.set("client.gen_ns_per_tx", genNs)
	m.set("client.build_s", buildS)
	m.set("core.allocs_per_tx", ratio(float64(timed.mallocs), float64(timed.attempted)))
	m.set("core.bytes_per_tx", ratio(float64(timed.allocated), float64(timed.attempted)))
	tracedRate := ratio(float64(traced.committed), traced.elapsed.Seconds())
	m.set("client.trace_overhead_share", 1-ratio(tracedRate, ratio(float64(timed.committed), timed.elapsed.Seconds())))
	m.set("verify.check_ms_per_ktx", ratio(recorded.verifyMs, float64(recorded.verifiedTxs)/1e3))
}

// passes are the runs one workload can get: untraced, traced (spans only)
// and recorded (spans, the engine's Recorder for Verify(), and — on the wire
// — the counting proxies).  A pass that was not run is nil.
type passes struct{ timed, traced, recorded *pass }

// designatedMetrics fills the layer metrics tied to workload name from that
// workload's passes, as far as the passes it needs were run.
func designatedMetrics(m metrics, name string, ps passes) {
	timed, traced, recorded := ps.timed, ps.traced, ps.recorded
	switch name {
	case "mem-hot":
		if traced == nil {
			return
		}
		t, c := traced.trace, traced.core
		m.set("core.begin_ns", t.p(spanBegin, 0.5))
		m.set("core.call_p50_ns", t.p(spanCall, 0.5))
		m.set("core.call_p99_ns", t.p(spanCall, 0.99))
		m.set("core.commit_p50_ns", t.p(spanCommit, 0.5))
		m.set("core.commit_p99_ns", t.p(spanCommit, 0.99))
		m.set("core.waits_per_call", ratio(float64(c.Waits), float64(c.Calls)))
		m.set("core.wait_us_per_wait", ratio(float64(c.WaitTime)/1e3, float64(c.Waits)))
		m.set("core.wait_share", ratio(float64(c.WaitTime), float64(traced.elapsed)*float64(traced.clients)))
		m.set("core.spurious_wakeup_share", ratio(float64(c.SpuriousWakeups), float64(c.Wakeups)))
		m.set("core.timeouts", float64(c.Timeouts))
		m.set("core.aborts_per_commit", ratio(float64(c.Aborted), float64(c.Committed)))
	case "mem-readmix":
		if traced == nil {
			return
		}
		t := traced.trace
		m.set("core.snapshot_p50_ns", t.p(spanSnapshot, 0.5))
		m.set("core.read_p50_ns", t.p(spanRead, 0.5))
		m.set("core.update_p50_ns", t.p(spanCommit, 0.5))
	case "disk-commit":
		if timed == nil {
			return
		}
		c := timed.core
		m.set("wal.fsyncs_per_commit", ratio(float64(c.LogFsyncs), float64(c.Committed)))
		m.set("wal.appends_per_commit", ratio(float64(c.LogAppends), float64(c.Committed)))
		m.set("wal.bytes_per_commit", ratio(float64(timed.walBytes), float64(c.Committed)))
		m.set("wal.checkpoints", float64(timed.checkpoints))
		m.set("wal.checkpoint_ms", timed.ckptMs)
		m.set("wal.reclaimed_bytes", float64(timed.ckpt.BytesReclaimed))
		m.set("wal.reopen_ms", timed.reopenMs)
		m.set("wal.replayed_records", float64(timed.replayed))
	case "wire-single":
		if traced == nil || recorded == nil {
			return
		}
		t, n := traced.trace, float64(recorded.attempted)
		m.set("netproto.ping_p50_us", us(traced.pingP50))
		m.set("netproto.ping_p99_us", us(traced.pingP99))
		m.set("netproto.call_p50_us", us(t.p(spanCall, 0.5)))
		m.set("netproto.commit_single_p50_us", us(t.p(spanCommit, 0.5)))
		m.set("netproto.round_trips_per_tx", ratio(float64(recorded.proxy.flips)/2, n))
		m.set("netproto.bytes_per_tx", ratio(float64(recorded.proxy.bytes), n))
		m.set("netproto.segments_per_tx", ratio(float64(recorded.proxy.segments), n))
		m.set("netproto.conns", float64(recorded.proxyConns))
		// The shards' own cost comes from the untraced run when there is
		// one.
		sh := traced
		if timed != nil {
			sh = timed
		}
		m.set("shardd.spawn_ms", sh.spawnMs)
		m.set("shardd.cpu_us_per_tx", ratio(float64(sh.shardCPU)/1e3, float64(sh.attempted)))
		m.set("shardd.rss_mb", sh.shardRSS)
		m.set("shardd.waits_per_call", ratio(float64(sh.core.Waits), float64(sh.core.Calls)))
		m.set("shardd.fsyncs_per_commit", ratio(float64(sh.core.LogFsyncs), float64(sh.core.Committed)))
	case "wire-cross":
		if traced == nil || recorded == nil {
			return
		}
		n := float64(recorded.attempted)
		m.set("netproto.commit_cross_p50_us", us(traced.trace.p(spanCommit, 0.5)))
		m.set("netproto.cross_round_trips_per_tx", ratio(float64(recorded.proxy.flips)/2, n))
		m.set("netproto.cross_bytes_per_tx", ratio(float64(recorded.proxy.bytes), n))
		m.set("netproto.cross_segments_per_tx", ratio(float64(recorded.proxy.segments), n))
	}
}
