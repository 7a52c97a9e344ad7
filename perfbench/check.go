package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCheck reads the saved standard output of runs (one file per run, the
// result on its last line) from dir and prints each end-to-end metric's
// median, quartiles and spread. A spread wider than the metric's bound in
// BENCHMARK.json fails, as does, when base names a directory of runs of
// the parent commit, a median worse than the parent's by more than the
// bound.
func runCheck(dir, base string) int {
	var bf benchmarkFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading BENCHMARK.json:", err)
		return 2
	}
	cur, err := loadRuns(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var old map[string][]float64
	if base != "" {
		if old, err = loadRuns(base); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	code := 0
	for _, m := range bf.EndToEnd {
		xs := cur[m.Name]
		if len(xs) < 2 {
			fmt.Printf("%-16s %d runs: too few\n", m.Name, len(xs))
			code = 1
			continue
		}
		q1, q3 := quartiles(xs)
		sp := spread(xs)
		verdict := "ok"
		if sp > m.Bound {
			verdict = "SPREAD ABOVE BOUND"
			code = 1
		}
		line := fmt.Sprintf("%-16s n=%d median %.6g q1 %.6g q3 %.6g spread %.3f bound %.2f",
			m.Name, len(xs), median(xs), q1, q3, sp, m.Bound)
		if ys := old[m.Name]; len(ys) > 0 {
			line += fmt.Sprintf(" base median %.6g", median(ys))
			if !withinBound(median(ys), median(xs), m.Bound) {
				verdict = "WORSE THAN BASE BY MORE THAN BOUND"
				code = 1
			}
		}
		fmt.Println(line, verdict)
	}
	return code
}

// loadRuns collects every metric's values from the result lines of the
// run outputs in dir; runs that failed their checks are an error.
func loadRuns(dir string) (map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := make(map[string][]float64)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var r struct {
			Correct bool              `json:"correct"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: the run failed its output check", f)
		}
		for k, m := range r.Metrics {
			out[k] = append(out[k], m.Value)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no run outputs in %s", dir)
	}
	return out, nil
}
