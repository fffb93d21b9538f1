// Command hybrid-shardbench sweeps the sharded cluster engine and emits
// BENCH_cluster.json: throughput versus shard count at a fixed worker
// count, for several cross-shard transaction ratios.  The 0% column shows
// the single-shard fast path scaling across independent lock managers;
// the 10% and 50% columns quantify the 2PC tax cross-shard transactions
// pay.  Run it with fixed flags so numbers stay comparable across PRs:
//
//	go run ./cmd/hybrid-shardbench -label "my change" -o BENCH_cluster.json
//
// With -append it merges the new runs into an existing file, so the file
// accumulates a trajectory (one entry per labelled configuration).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hybridcc/internal/bench"
)

// fileFormat is the schema of BENCH_cluster.json.  The probe configuration
// lives inside each entry, not at the top level: -append must never record
// numbers under a config block they were not measured with.
type fileFormat struct {
	Benchmark string  `json:"benchmark"`
	Workload  string  `json:"workload"`
	Entries   []entry `json:"entries"`
}

type config struct {
	Workers    int   `json:"workers"`
	OpsPerTx   int   `json:"ops_per_tx"`
	HoldUS     int64 `json:"hold_us"`
	DurationMS int64 `json:"duration_ms"`
}

type entry struct {
	Label   string                     `json:"label"`
	GoMaxP  int                        `json:"gomaxprocs"`
	Config  config                     `json:"config"`
	Results []bench.ClusterBenchResult `json:"results"`
}

func parseInts(s, what string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad %s %q: %v\n", what, f, err)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	var (
		label      = flag.String("label", "dev", "entry label recorded in the output")
		out        = flag.String("o", "", "output file (default stdout)")
		appendFile = flag.Bool("append", false, "merge into an existing output file")
		workers    = flag.Int("workers", 8, "concurrent workers (fixed across shard counts)")
		opsPerTx   = flag.Int("ops", 8, "operations per transaction")
		hold       = flag.Duration("hold", 200*time.Microsecond, "lock-hold time before commit (transaction latency)")
		duration   = flag.Duration("duration", time.Second, "measurement window per configuration")
		shards     = flag.String("shards", "1,2,4,8", "comma-separated shard counts")
		crossPcts  = flag.String("cross", "0,10,50", "comma-separated cross-shard transaction percentages")
		transport  = flag.String("transport", "direct", "cross-shard commit transport: direct (in-process calls) or tcp (loopback netproto; see -addrs)")
		addrsFlag  = flag.String("addrs", "", "comma-separated shard-server addresses for -transport tcp (addrs[i] serves shard i; empty starts in-process loopback servers); requires a single -shards count matching the list")
		group      = flag.Bool("group", false, "enable per-shard group commit")
	)
	flag.Parse()
	switch *transport {
	case "direct", "tcp":
	default:
		fmt.Fprintf(os.Stderr, "bad -transport %q (want direct or tcp)\n", *transport)
		os.Exit(2)
	}
	var addrs []string
	if *addrsFlag != "" {
		if *transport != "tcp" {
			fmt.Fprintln(os.Stderr, "-addrs only applies to -transport tcp")
			os.Exit(2)
		}
		for _, a := range strings.Split(*addrsFlag, ",") {
			addrs = append(addrs, strings.TrimSpace(a))
		}
	}

	e := entry{
		Label:  *label,
		GoMaxP: runtime.GOMAXPROCS(0),
		Config: config{
			Workers:    *workers,
			OpsPerTx:   *opsPerTx,
			HoldUS:     hold.Microseconds(),
			DurationMS: duration.Milliseconds(),
		},
	}
	shardCounts := parseInts(*shards, "shard count")
	if len(addrs) > 0 && (len(shardCounts) != 1 || shardCounts[0] != len(addrs)) {
		fmt.Fprintf(os.Stderr, "-addrs lists %d servers; -shards must be exactly %d\n", len(addrs), len(addrs))
		os.Exit(2)
	}
	for _, cross := range parseInts(*crossPcts, "cross percentage") {
		for _, s := range shardCounts {
			res, err := bench.ClusterThroughput(bench.ClusterBenchConfig{
				Shards:      s,
				Workers:     *workers,
				OpsPerTx:    *opsPerTx,
				CrossPct:    cross,
				Hold:        *hold,
				Duration:    *duration,
				Transport:   *transport,
				Addrs:       addrs,
				GroupCommit: *group,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "shards=%d cross=%2d%% %-6s group=%-5v %10.0f tx/s  (committed=%d fastpath=%d 2pc=%d retries=%d)\n",
				s, cross, res.Transport, res.GroupCommit, res.TxPerSec, res.Committed, res.FastPathCommits, res.CrossShardCommits, res.Retries)
			e.Results = append(e.Results, res)
		}
	}

	f := fileFormat{
		Benchmark: "sharded cluster throughput",
		Workload:  "one hot Account per shard; each tx credits its shard's hot object ops_per_tx times, or splits the credits across two shards (cross_pct of transactions) and commits via 2PC",
	}
	if *appendFile && *out != "" {
		data, err := os.ReadFile(*out)
		switch {
		case err == nil:
			if err := json.Unmarshal(data, &f); err != nil {
				fmt.Fprintf(os.Stderr, "cannot merge into %s: %v\n", *out, err)
				os.Exit(1)
			}
		case !os.IsNotExist(err):
			// A fresh start is fine; losing the accumulated trajectory to
			// a transient read failure is not.
			fmt.Fprintf(os.Stderr, "cannot read %s for -append: %v\n", *out, err)
			os.Exit(1)
		}
	}
	f.Entries = append(f.Entries, e)

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
