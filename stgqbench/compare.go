package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare mode needs: each metric's
// better direction and, for end-to-end metrics, its regression bound.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics (no bound)
}

func loadSpec(path string) (map[string]specMetric, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]specMetric{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// loadResults reads every result file in dir.
func loadResults(dir string) ([]Result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// series groups one result set's values by workload, trace flag and
// metric, each keyed by seed.
type seriesKey struct {
	workload, metric string
	trace            bool
}

func group(rs []Result) map[seriesKey]map[int64]float64 {
	out := map[seriesKey]map[int64]float64{}
	for _, r := range rs {
		for name, m := range r.Metrics {
			k := seriesKey{r.Workload, name, r.Trace}
			if out[k] == nil {
				out[k] = map[int64]float64{}
			}
			out[k][r.Seed] = m.Value
		}
	}
	return out
}

func values(bySeed map[int64]float64) []float64 {
	seeds := make([]int64, 0, len(bySeed))
	for s := range bySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		out[i] = bySeed[s]
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (q1, med, q3, rel float64) {
	q1, med, q3 = quartiles(xs)
	return q1, med, q3, math.Abs(q3-q1) / math.Abs(med)
}

// pairWins returns the fraction of seed-matched pairs in which b beats
// a in the metric's better direction; ties count for neither side.
func pairWins(a, b map[int64]float64, better string) (frac float64, pairs int) {
	wins := 0
	for seed, av := range a {
		bv, ok := b[seed]
		if !ok {
			continue
		}
		pairs++
		if (better == "lower" && bv < av) || (better == "higher" && bv > av) {
			wins++
		}
	}
	return ratio(float64(wins), float64(pairs)), pairs
}

// verdict classifies one workload × metric comparison of set B (the
// change) against set A (the base): "unresolved" when either side's
// spread exceeds the bound, "better" when B wins at least nine tenths of
// the pairs and the medians differ by more than A's spread, "worse" when
// B's median is worse than A's by more than the bound, "no change"
// otherwise.
func verdict(sm specMetric, a, b map[int64]float64) string {
	av, bv := values(a), values(b)
	if len(av) < 2 || len(bv) < 2 {
		return "too few runs"
	}
	aq1, amed, aq3, arel := spread(av)
	_, bmed, _, brel := spread(bv)
	if sm.Bound == 0 {
		return "-"
	}
	if arel > sm.Bound || brel > sm.Bound {
		return "unresolved"
	}
	worse := (bmed - amed) / math.Abs(amed)
	if sm.Better == "higher" {
		worse = -worse
	}
	if frac, _ := pairWins(a, b, sm.Better); frac >= 0.9 && math.Abs(bmed-amed) > math.Abs(aq3-aq1) {
		return "better"
	}
	if worse > sm.Bound {
		return "worse"
	}
	return "no change"
}

// compareMain prints, per workload × metric, the median and quartiles of
// one result set, or of two sets side by side with the pair-win fraction
// and a verdict. It refuses to compare results from different hosts.
func compareMain(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return errors.New("usage: compare <results-dir-A> [<results-dir-B>]")
	}
	specs, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sets [][]Result
	for _, dir := range args {
		rs, err := loadResults(dir)
		if err != nil {
			return err
		}
		sets = append(sets, rs)
	}
	ref := sets[0][0].Fingerprint
	for _, rs := range sets {
		for _, r := range rs {
			if !r.Fingerprint.SameHost(ref) {
				return fmt.Errorf("refusing to compare across hosts: %+v vs %+v", ref, r.Fingerprint)
			}
		}
	}
	fmt.Printf("host: %s | nproc %d | GOMAXPROCS %d | %s\n", ref.CPU, ref.NumCPU, ref.GOMAXPROCS, ref.GoVersion)
	a := group(sets[0])
	var b map[seriesKey]map[int64]float64
	if len(sets) == 2 {
		b = group(sets[1])
	}
	keys := make([]seriesKey, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		sm := specs[k.metric]
		av := values(a[k])
		if len(av) < 2 {
			fmt.Printf("%-14s %-30s n=%d (need ≥2 runs for quartiles)\n", k.workload, k.metric, len(av))
			continue
		}
		q1, med, q3, rel := spread(av)
		line := fmt.Sprintf("%-14s %-30s n=%-2d median %12.5g [%.5g, %.5g] spread %.3f", k.workload, k.metric, len(av), med, q1, q3, rel)
		if sm.Bound > 0 {
			line += fmt.Sprintf(" (bound %.2f)", sm.Bound)
		}
		if b != nil {
			bs, ok := b[k]
			if !ok {
				fmt.Println(line, "| missing in B")
				continue
			}
			bq1, bmed, bq3, brel := spread(values(bs))
			frac, pairs := pairWins(a[k], bs, sm.Better)
			line += fmt.Sprintf(" | B median %12.5g [%.5g, %.5g] spread %.3f | B wins %.2f of %d pairs | %s",
				bmed, bq1, bq3, brel, frac, pairs, verdict(sm, a[k], bs))
		}
		fmt.Println(line)
	}
	return nil
}
