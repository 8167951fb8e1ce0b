package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// compareRecords summarizes a records file: for every host
// fingerprint, workload and mode, one row per code version (git
// commit and source digest) with each metric's median and quartiles.
// Records of different hosts land in different tables and are never
// set side by side.
func compareRecords(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type group struct{ host, workload, mode, code string }
	values := map[group]map[string][]float64{}
	runs := map[group]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Result.Correct {
			continue
		}
		host, err := json.Marshal(r.Fingerprint.host())
		if err != nil {
			return err
		}
		mode := "trace0"
		if r.Trace {
			mode = "trace1"
		}
		g := group{string(host), r.Workload, mode, r.Fingerprint.GitCommit + "/" + r.Fingerprint.SourceHash}
		if values[g] == nil {
			values[g] = map[string][]float64{}
		}
		runs[g]++
		for name, m := range r.Result.Metrics {
			values[g][name] = append(values[g][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	groups := slices.SortedFunc(maps.Keys(values), func(a, b group) int {
		for _, c := range [][2]string{{a.host, b.host}, {a.workload, b.workload}, {a.mode, b.mode}, {a.code, b.code}} {
			if c[0] != c[1] {
				if c[0] < c[1] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	lastHost := ""
	for _, g := range groups {
		if g.host != lastHost {
			fmt.Fprintf(w, "\nhost %s\n", g.host)
			lastHost = g.host
		}
		fmt.Fprintf(w, "  %s %s code %s (%d runs)\n", g.workload, g.mode, g.code, runs[g])
		for _, name := range slices.Sorted(maps.Keys(values[g])) {
			xs := values[g][name]
			fmt.Fprintf(w, "    %-34s median %-14.6g q1 %-14.6g q3 %-14.6g\n",
				name, quantile(slices.Clone(xs), 0.5), quantile(slices.Clone(xs), 0.25), quantile(slices.Clone(xs), 0.75))
		}
	}
	return nil
}
