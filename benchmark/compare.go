package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians over their runs, the ratio with its base, the bound and a verdict:
// ok, regressed (worse by more than the bound), or unresolved (a side's own
// runs spread wider than the bound, so the medians cannot be told apart).
// Exact counts must be identical between runs of one seed. It reports false
// when anything regressed, a count differs, or a run was incorrect.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, r := range append(append([]result(nil), a...), b...) {
		if !r.Correct {
			fmt.Fprintf(w, "incorrect run: %s trace=%d seed=%d: %d of %d failed\n", r.Workload, r.Trace, r.Seed, r.Failed, r.Attempted)
			ok = false
		}
	}

	values := func(rs []result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, has := r.Metrics[metric]; has && r.Workload == workload && r.Trace == 0 {
				out = append(out, v.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (median, runs)\tb (median, runs)\tb/a\tbound\tverdict")
	for _, name := range workloadNames {
		for _, def := range endToEnd {
			va, vb := values(a, name, def.name), values(b, name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianInterpolated(va), medianInterpolated(vb)
			worse := (mb - ma) / ma
			if def.better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case spread(va) > def.bound || spread(vb) > def.bound:
				verdict = fmt.Sprintf("unresolved (spread a %.1f%%, b %.1f%%)", 100*spread(va), 100*spread(vb))
			case worse > def.bound:
				verdict = "regressed"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s (%d)\t%.4f %s (%d)\t%.3f of %.4f\t%.0f%%\t%s\n",
				name, def.name, ma, def.unit, len(va), mb, def.unit, len(vb), mb/ma, ma, 100*def.bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}

	// Exact counts, matched run to run by workload, mode and seed.
	type key struct {
		workload string
		trace    int
		seed     int64
		smoke    bool
	}
	byKey := make(map[key]result)
	for _, r := range a {
		byKey[key{r.Workload, r.Trace, r.Seed, r.Smoke}] = r
	}
	var diffs []string
	compared := 0
	for _, rb := range b {
		ra, has := byKey[key{rb.Workload, rb.Trace, rb.Seed, rb.Smoke}]
		if !has {
			continue
		}
		if ra.InputsHash != rb.InputsHash {
			diffs = append(diffs, fmt.Sprintf("%s seed %d: inputs_hash %s vs %s", rb.Workload, rb.Seed, ra.InputsHash, rb.InputsHash))
		}
		for _, def := range perLayer {
			va, vb := ra.Metrics[def.name], rb.Metrics[def.name]
			// serve_uncached's counts are means over a Zipf sample of requests:
			// they repeat exactly only over the same number of requests.
			if !def.exact || rb.Trace != 1 || (rb.Workload == "serve_uncached" && va.Samples != vb.Samples) {
				continue
			}
			compared++
			if !sameCount(va.Value, vb.Value) {
				diffs = append(diffs, fmt.Sprintf("%s seed %d: %s = %v vs %v %s", rb.Workload, rb.Seed, def.name, va.Value, vb.Value, def.unit))
			}
		}
	}
	sort.Strings(diffs)
	fmt.Fprintf(w, "exact counts: %d compared, %d differ\n", compared, len(diffs))
	for _, d := range diffs {
		fmt.Fprintln(w, "  differs:", d)
	}
	return ok && len(diffs) == 0, nil
}
