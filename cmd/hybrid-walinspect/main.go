// Command hybrid-walinspect dumps and validates a write-ahead commit log
// directory (one produced by hybridcc.Open, or one shard/coord directory
// of an OpenCluster tree).
//
//	go run ./cmd/hybrid-walinspect [-dump] [-q] DIR...
//
// For each directory it walks the segments in order, checks every frame's
// CRC, and prints a per-segment summary plus the recovery view: how many
// transactions would recover committed, which prepared branches are
// undecided (awaiting a coordinator decision record, presumed abort
// without one), and how many decision/abort records the log holds.  A torn
// final segment is reported, not an error — that is the crash the format
// tolerates; a torn non-final segment means real corruption and a nonzero
// exit.  A live segment's zero-filled tail (what a syncing log preallocates
// ahead of its append offset) is reported as "+ N preallocated" on a clean
// segment.  -dump additionally prints every record; -q prints problems only.
//
// Checkpoint files (checkpoint-*.ckpt) are validated frame by frame and
// summarized: cut timestamp, object count, pending branches, and — for the
// newest valid one — the truncation view.  -reclaimable dry-runs coverage:
// which sealed segments the newest valid checkpoint covers entirely, and
// how many bytes unlinking them would give back, without touching
// anything.  A torn checkpoint is reported but never fatal: recovery skips
// it and falls back to an older checkpoint or full replay.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hybridcc/internal/wal"
)

var (
	dump        = flag.Bool("dump", false, "print every record, not just summaries")
	quiet       = flag.Bool("q", false, "print problems only (torn or corrupt segments, undecided transactions)")
	reclaimable = flag.Bool("reclaimable", false, "dry-run checkpoint coverage: segments truncation could unlink")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hybrid-walinspect [-dump] [-q] [-reclaimable] DIR...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	exit := 0
	for _, dir := range flag.Args() {
		if err := inspect(dir); err != nil {
			fmt.Fprintf(os.Stderr, "hybrid-walinspect: %s: %v\n", dir, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func inspect(dir string) error {
	recs, segs, err := wal.ReadDir(dir)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Printf("%s: %d segment(s), %d record(s)\n", dir, len(segs), len(recs))
	}
	corrupt := false
	for i, s := range segs {
		if s.Torn {
			// A torn tail on the final segment is the tolerated crash
			// shape (Open truncates and continues); torn anywhere else is
			// corruption Open would refuse.
			final := i == len(segs)-1
			verdict := "CORRUPT (non-final segment)"
			if final {
				verdict = "torn crash tail, tolerated"
			} else {
				corrupt = true
			}
			fmt.Printf("  %s: %d record(s), %d/%d bytes valid — %s: %s\n",
				s.Name, s.Records, s.GoodBytes, s.Size, verdict, s.Reason)
		} else if !*quiet {
			fmt.Printf("  %s: %d record(s), %d bytes", s.Name, s.Records, s.GoodBytes)
			if tail := s.Size - s.GoodBytes; tail > 0 {
				// The zero-filled tail a syncing log keeps ahead of its
				// live segment: clean, not torn.
				fmt.Printf(" + %d preallocated", tail)
			}
			fmt.Println()
		}
	}
	if *dump {
		for _, r := range recs {
			fmt.Printf("  %s\n", recordLine(r))
		}
	}

	ck, err := inspectCheckpoints(dir, segs)
	if err != nil {
		return err
	}

	sum := wal.Summarize(recs)
	if !*quiet {
		fmt.Printf("  recovery: %d committed, %d decision(s), %d abort record(s)\n",
			len(sum.Committed), len(sum.Decisions), sum.Aborts)
		if ck != nil {
			fmt.Printf("  (recovery starts from %s and replays only the tail)\n", ck.Name)
		}
	}
	if n := len(sum.Pending); n > 0 {
		ids := make([]string, 0, n)
		for _, p := range sum.Pending {
			ids = append(ids, p.Tx)
		}
		sort.Strings(ids)
		fmt.Printf("  %d prepared-but-undecided transaction(s): %v\n", n, ids)
		fmt.Printf("  (each commits iff the coordinator log holds its decision record; presumed abort otherwise)\n")
	}
	if corrupt {
		return fmt.Errorf("corrupt non-final segment")
	}
	return nil
}

// inspectCheckpoints validates every published checkpoint file and returns
// the newest valid one (nil when there is none).  With -reclaimable it
// also dry-runs the newest valid checkpoint's segment coverage.
func inspectCheckpoints(dir string, segs []wal.SegmentInfo) (*wal.Checkpoint, error) {
	names, err := wal.CheckpointFiles(dir)
	if err != nil {
		return nil, err
	}
	var newest *wal.Checkpoint
	for _, name := range names {
		ck, err := wal.ReadCheckpointFile(dir, name)
		if err != nil {
			// Torn or CRC-bad: recovery skips it, so inspection flags it
			// without failing the directory.
			fmt.Printf("  %s: INVALID (skipped by recovery): %v\n", name, err)
			continue
		}
		newest = ck
		if *quiet {
			continue
		}
		barrier := int64(0)
		if len(ck.Objects) > 0 {
			barrier = ck.Objects[0].Folded
			for _, co := range ck.Objects[1:] {
				if co.Folded < barrier {
					barrier = co.Folded
				}
			}
		}
		fmt.Printf("  %s: cut ts=%d, %d object(s), %d pending branch(es), truncation barrier ts<%d, frames valid\n",
			ck.Name, ck.CutTS, len(ck.Objects), len(ck.Pending), barrier)
	}
	if *reclaimable {
		if newest == nil {
			fmt.Printf("  reclaimable: nothing (no valid checkpoint)\n")
			return nil, nil
		}
		// Only sealed segments are candidates: the engine never unlinks the
		// live (highest-indexed) segment, so coverage is bounded by it.
		below := 0
		for _, s := range segs {
			if i := segIndex(s.Name); i > below {
				below = i
			}
		}
		covered, err := wal.CoveredSegments(dir, below, newest)
		if err != nil {
			return newest, err
		}
		var bytes int64
		for _, s := range covered {
			bytes += s.Size
		}
		fmt.Printf("  reclaimable by %s: %d segment(s), %d bytes", newest.Name, len(covered), bytes)
		if len(covered) > 0 {
			cnames := make([]string, len(covered))
			for i, s := range covered {
				cnames[i] = s.Name
			}
			fmt.Printf(" (%s)", strings.Join(cnames, " "))
		}
		fmt.Println()
	}
	return newest, nil
}

// segIndex parses the numeric index out of a wal-%08d.seg name, -1
// otherwise.
func segIndex(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "wal-%08d.seg", &n); err != nil {
		return -1
	}
	return n
}

func recordLine(r wal.Record) string {
	kind := map[wal.Kind]string{
		wal.KindCommit:    "commit",
		wal.KindPrepared:  "prepared",
		wal.KindAbort:     "abort",
		wal.KindDecision:  "decision",
		wal.KindOwner:     "owner",
		wal.KindDischarge: "discharge",
	}[r.Kind]
	line := fmt.Sprintf("%-8s %-6s ts=%d", kind, r.Tx, r.TS)
	if r.Participants > 0 {
		line += fmt.Sprintf(" shards=%d", r.Participants)
	}
	for _, oo := range r.Objs {
		line += fmt.Sprintf(" %s[", oo.Obj)
		for i, op := range oo.Ops {
			if i > 0 {
				line += " "
			}
			line += fmt.Sprintf("%s(%s)=%s", op.Name, op.Arg, op.Res)
		}
		line += "]"
	}
	return line
}
