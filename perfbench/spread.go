package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the spread summary reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadResults reads the result lines under dir, grouped by workload: each
// file <dir>/<workload>/<anything>.json holds one run's output, whose last
// line is the result.
func loadResults(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		w := filepath.Base(filepath.Dir(f))
		out[w] = append(out[w], r)
	}
	return out, nil
}

// printSpread prints, for each workload and end-to-end metric, the median
// and quartiles across the runs under dir and the spread (Q3-Q1)/median
// against the metric's bound.  With against set, it also compares each
// median with the earlier set's: a median worse by more than the bound
// fails.  It returns an error when any check fails.
func printSpread(w io.Writer, specPath, dir, against string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	cur, err := loadResults(dir)
	if err != nil {
		return err
	}
	var prev map[string][]result
	if against != "" {
		if prev, err = loadResults(against); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\truns\tQ1\tmedian\tQ3\tspread\tbound\tcheck\t")
	problems := 0
	for _, wl := range sortedKeys(cur) {
		runs := cur[wl]
		failed := 0
		for _, r := range runs {
			if !r.Correct || r.Failed > 0 {
				failed++
			}
		}
		if failed > 0 {
			problems++
			fmt.Fprintf(tw, "%s\t(%d of %d runs incorrect)\t\t\t\t\t\t\tFAIL\t\n", wl, failed, len(runs))
		}
		for _, m := range spec.EndToEnd {
			vals := metricValues(runs, m.Name)
			q1, med, q3, ok := quartiles(vals)
			if !ok {
				problems++
				fmt.Fprintf(tw, "%s\t%s\t%d\t\t\t\t\t%.2f\tFAIL\t\n", wl, m.Name, len(vals), m.Bound)
				continue
			}
			spread := (q3 - q1) / med
			check := "ok"
			switch {
			case spread > m.Bound:
				check, problems = "FAIL", problems+1
			case spread > m.Bound/3:
				check = "above bound/3"
			}
			if prev != nil {
				if pv := metricValues(prev[wl], m.Name); len(pv) == 0 {
					check, problems = "FAIL: no earlier runs", problems+1
				} else {
					pm := median(pv)
					worse := (med - pm) / pm
					if m.Better == "higher" {
						worse = (pm - med) / pm
					}
					if worse > m.Bound {
						check, problems = fmt.Sprintf("FAIL: %+.1f%% vs earlier", 100*worse), problems+1
					} else {
						check += fmt.Sprintf(", %+.1f%% vs earlier", 100*worse)
					}
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%.2f\t%s\t\n", wl, m.Name, len(vals), q1, med, q3, spread, m.Bound, check)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if problems > 0 {
		return fmt.Errorf("%d checks failed", problems)
	}
	return nil
}

// metricValues collects one metric across runs.
func metricValues(runs []result, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	slices.Sort(vals)
	return vals
}
