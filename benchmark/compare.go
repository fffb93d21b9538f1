package main

import (
	"fmt"
	"io"
	"slices"
)

// series collects one metric of the untraced run of one workload over a
// file's runs.
func series(f resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if w := r.Workloads[workload]; w != nil {
			if v, ok := w.EndToEnd[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// spreadOf is the distance between the first and third quartile as a share
// of the median — the run-to-run spread the acceptance check uses.  With
// fewer than two runs there is no spread to speak of and it returns 0.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict applies one metric's bound to two sets of runs.  A metric whose
// recorded spread on either side exceeds the bound is unresolved: the runs
// cannot tell a change of that size from noise.  A set-up that got worse by
// setupFloorS at most is ok whatever its share.
func verdict(d metricDef, old, new []float64) string {
	mo, mn := median(old), median(new)
	worse := ratio(mn-mo, mo) // share of the old median by which the metric got worse
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case d.name == "setup_s" && mn-mo <= setupFloorS:
		return "ok"
	case spreadOf(old) > d.bound || spreadOf(new) > d.bound:
		return "unresolved"
	case worse > d.bound:
		return "regressed"
	}
	return "ok"
}

// failedShare is failed ÷ attempted of one workload over a file's runs.
func failedShare(f resultFile, workload string) (share float64, ok bool) {
	var failed, attempted int64
	for _, r := range f.Runs {
		if w := r.Workloads[workload]; w != nil {
			failed += w.Failed
			attempted += w.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted)), attempted > 0
}

// compareFiles prints, for every workload and every end-to-end or demoted
// metric in its own row, both medians, their ratio with its base, both spreads and the
// verdict under the metric's bound; then the workload's share of failed
// transactions, which may rise by failedRise.  It reports whether anything
// regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s (%d runs)   new: %s (%d runs)\n", oldPath, len(oldF.Runs), newPath, len(newF.Runs))
	fmt.Fprintf(w, "%-12s %-16s %6s %14s %14s %24s %8s %8s  %s\n",
		"workload", "metric", "bound", "old median", "new median", "new/old", "spr.old", "spr.new", "verdict")
	rows := 0
	for _, wl := range workloads {
		for _, d := range slices.Concat(endToEnd, demoted) {
			o, n := series(oldF, wl.name, d.name), series(newF, wl.name, d.name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			rows++
			v := verdict(d, o, n)
			regressed = regressed || v == "regressed"
			mo, mn := median(o), median(n)
			fmt.Fprintf(w, "%-12s %-16s %5.0f%% %14s %14s %8.3f of %-12s %7.1f%% %7.1f%%  %s\n",
				wl.name, d.name, 100*d.bound, formatValue(mo), formatValue(mn), ratio(mn, mo), formatValue(mo),
				100*spreadOf(o), 100*spreadOf(n), v)
		}
		fo, okOld := failedShare(oldF, wl.name)
		fn, okNew := failedShare(newF, wl.name)
		if okOld && okNew {
			v := "ok"
			if fn-fo > failedRise {
				v, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-12s %-16s %+6.3f %14s %14s %42s  %s\n",
				wl.name, "failed_share", failedRise, formatValue(fo), formatValue(fn), "", v)
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("the two files share no workload with end-to-end metrics")
	}
	return regressed, nil
}
