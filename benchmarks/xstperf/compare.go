package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// failBound is by how much the share of failed statements may rise, as
// an absolute difference, before a comparison counts as worse.
const failBound = 0.001

// readReports reads a report file: one JSON report per line, as -out
// appends them, grouped by workload.
func readReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r report
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
}

// failShare is failed / attempted summed over the reports, and whether
// every one of them is marked correct.
func failShare(reports []*report) (share float64, failed, attempted int, correct bool) {
	correct = true
	for _, r := range reports {
		failed += r.Failed
		attempted += r.Attempted
		correct = correct && r.Correct
	}
	return ratio(float64(failed), float64(attempted)), failed, attempted, correct
}

// compareFiles prints one row per (workload, metric) with the median and
// quartiles over the untraced runs in each file. An end-to-end metric
// gets a verdict: worse when b's median is worse than a's by more than
// the bound (as a share of a's), unresolved when either side's quartile
// spread is wider than the bound, same otherwise. An end-to-end metric
// one side lacks is worse, and so is a workload whose runs in b (traced
// ones included) are not all correct or fail a share of their statements
// more than failBound above a's. The layer metrics the untraced runs
// carry follow without a verdict. It reports whether any row is worse.
func compareFiles(w io.Writer, cat *catalogue, aPath, bPath string) (worse bool, err error) {
	a, err := readReports(aPath)
	if err != nil {
		return false, err
	}
	b, err := readReports(bPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\ta median [q1, q3]\tb median [q1, q3]\tworse by\tbound\tverdict")
	for _, wl := range cat.Workloads {
		as, af, aa, _ := failShare(a[wl.Name])
		bs, bfail, ba, correct := failShare(b[wl.Name])
		failures := "same"
		if !correct || bs-as > failBound {
			failures, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed / attempted\t%d/%d\t%d / %d\t%d / %d\t%+.4f\t%g\t%s\n",
			wl.Name, len(a[wl.Name]), len(b[wl.Name]), af, aa, bfail, ba, bs-as, failBound, failures)
		for _, m := range cat.all() {
			av, bv := values(a[wl.Name], m.Name), values(b[wl.Name], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				if m.Bound != nil {
					worse = true
					fmt.Fprintf(tw, "%s\t%s\t%d/%d\t\t\t\t\tworse (missing)\n", wl.Name, m.Name, len(av), len(bv))
				}
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			change := ratio(bmed-amed, amed)
			if m.Better == "higher" {
				change = -change
			}
			spread := max(ratio(aq3-aq1, amed), ratio(bq3-bq1, bmed))
			bound, verdict := "", "no bound"
			if m.Bound != nil {
				bound, verdict = fmt.Sprintf("%.0f%%", 100**m.Bound), "same"
				switch {
				case change > *m.Bound:
					verdict, worse = "worse", true
				case spread > *m.Bound:
					verdict = "unresolved"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\t%s\n",
				wl.Name, m.Name, len(av), len(bv), amed, aq1, aq3, bmed, bq1, bq3, 100*change, bound, verdict)
		}
	}
	return worse, tw.Flush()
}

// values is the metric's value in every untraced report that has it.
func values(reports []*report, name string) []float64 {
	var out []float64
	for _, r := range reports {
		if m, ok := r.Metrics[name]; ok && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}
