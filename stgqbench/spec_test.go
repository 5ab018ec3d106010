package main

import (
	"sort"
	"testing"
)

// BENCHMARK.json must name exactly the metrics this program prints, with
// the same units, in both the untraced and the traced run.
func TestSpecMatchesPrintedMetrics(t *testing.T) {
	specs, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	o.setups = []float64{1}
	o.queryMs, o.writeMs = []float64{1}, []float64{1}
	o.slicesCalm = 1
	for _, trace := range []bool{false, true} {
		for w := range workloads {
			cfg := runConfig{workload: w, trace: trace}
			var got map[string]metricValue
			if trace {
				got = perLayer(cfg, o)
			} else {
				got = endToEnd(cfg, o)
			}
			want := map[string]bool{}
			for name, s := range specs {
				if (s.Bound > 0) != trace {
					want[name] = true
				}
			}
			for name, m := range got {
				s, ok := specs[name]
				switch {
				case !ok || !want[name]:
					t.Errorf("%s trace=%v prints %s, which BENCHMARK.json does not list there", w, trace, name)
				case s.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, s.Unit)
				}
				delete(want, name)
			}
			var missing []string
			for name := range want {
				missing = append(missing, name)
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Errorf("%s trace=%v does not print %v", w, trace, missing)
			}
		}
	}
}
