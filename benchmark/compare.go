package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints one row per workload and end-to-end metric of two
// result files: both medians, their ratio (B over A, A is the base), the
// bound, and a verdict. It refuses files that were not taken like for like.
// It reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if err := likeForLike(a, b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-17s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	allOK := true
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			return false, fmt.Errorf("workload %s is missing from %s", wa.Name, pathB)
		}
		if wa.Failed != wb.Failed {
			fmt.Fprintf(w, "%-17s %-20s %14d %14d %8s %6s  %s\n", wa.Name, "failed", wa.Failed, wb.Failed, "", "0", "regressed")
			allOK = false
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			if ma == nil || mb == nil {
				continue
			}
			v := verdict(def, ma, mb)
			if v != "ok" {
				allOK = false
			}
			bound := fmt.Sprintf("%.0f%%", def.bound*100)
			if def.exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-17s %-20s %14.6g %14.6g %8.4f %6s  %s\n",
				wa.Name, def.name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), bound, v)
		}
	}
	return allOK, nil
}

// verdict judges B against A. A simulated statistic must repeat exactly
// for equal inputs. A host time has regressed when B's median is worse than
// A's by more than the bound; when the rounds of either side spread wider
// than the bound the difference is unresolved, unless every round of B
// reads better than every round of A.
func verdict(def metricDef, a, b *measured) string {
	if def.exact {
		if a.Value == b.Value {
			return "ok"
		}
		return "regressed"
	}
	worse := b.Value/a.Value - 1
	if def.better == "higher" {
		worse = a.Value/b.Value - 1
	}
	if worse > def.bound {
		return "regressed"
	}
	if max(a.Spread, b.Spread) > def.bound && !allBetter(def, a.Rounds, b.Rounds) {
		return "unresolved"
	}
	return "ok"
}

// allBetter reports whether every round of b beats every round of a.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if def.better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// likeForLike refuses to compare runs taken on different machines shapes,
// schedules or inputs: the difference would be the environment's.
func likeForLike(a, b *result) error {
	ea, eb := a.Env, b.Env
	switch {
	case ea.NProc != eb.NProc:
		return fmt.Errorf("not comparable: nproc %d vs %d", ea.NProc, eb.NProc)
	case ea.Clients != eb.Clients:
		return fmt.Errorf("not comparable: %d clients vs %d", ea.Clients, eb.Clients)
	case ea.Rounds != eb.Rounds || ea.RoundS != eb.RoundS:
		return fmt.Errorf("not comparable: %d rounds x %gs vs %d rounds x %gs", ea.Rounds, ea.RoundS, eb.Rounds, eb.RoundS)
	}
	for _, wa := range a.Workloads {
		if wb := b.workload(wa.Name); wb != nil && wa.Inputs.SHA256 != wb.Inputs.SHA256 {
			return fmt.Errorf("not comparable: %s ran different inputs (%.16s vs %.16s)", wa.Name, wa.Inputs.SHA256, wb.Inputs.SHA256)
		}
	}
	return nil
}

func (r *result) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
