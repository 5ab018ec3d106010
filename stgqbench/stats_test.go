package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileExactOnRawSamples(t *testing.T) {
	xs := sortedCopy([]float64{5, 1, 4, 2, 3})
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// 1..1000: p50 and p99 interpolate between neighbours, with no
	// bucketing error a 10% change could hide in.
	var big []float64
	for i := 1; i <= 1000; i++ {
		big = append(big, float64(i))
	}
	if got := quantile(big, 0.5); !near(got, 500.5) {
		t.Errorf("p50 = %v, want 500.5", got)
	}
	if got := quantile(big, 0.99); !near(got, 990.01) {
		t.Errorf("p99 = %v, want 990.01", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// Latency percentiles are medians over consecutive slices of at least
// minSlice samples: a burst confined to one slice does not move them, a
// shift in every slice does.
func TestSlicedPercentile(t *testing.T) {
	var xs []float64
	for _, v := range []float64{1, 1000, 3} { // the middle slice is a burst
		for i := 0; i < minSlice; i++ {
			xs = append(xs, v)
		}
	}
	if got := slicedPct(xs, 0.9, "ms"); got.Value != 3 || got.Samples != 3*minSlice {
		t.Errorf("sliced p90 = %+v, want 3 over %d samples", got, 3*minSlice)
	}
	for i := range xs {
		xs[i] += 10
	}
	if got := slicedPct(xs, 0.5, "ms").Value; got != 13 {
		t.Errorf("sliced p50 after a shift of every sample = %v, want 13", got)
	}
	// The rate per slice of busy time: 1000/s, 1/s (the burst) and
	// 500/s; the median slice is reported.
	var ops []float64
	for _, v := range []float64{1, 1000, 2} {
		for i := 0; i < minSlice; i++ {
			ops = append(ops, v)
		}
	}
	if got := slicedRate(ops); !near(got.Value, 500) || got.Samples != 3*minSlice {
		t.Errorf("sliced rate = %+v, want 500/s over %d samples", got, 3*minSlice)
	}
	// Fewer samples than one slice: the plain percentile.
	if got := slicedPct([]float64{4, 1, 3, 2, 5}, 0.5, "ms").Value; got != 3 {
		t.Errorf("p50 of one short slice = %v, want 3", got)
	}
	// The slice count is capped, so long runs still get about one slice
	// per second.
	long := make([]float64, 1000*maxSlices)
	if got := slicedPct(long, 0.5, "ms"); got.Samples != len(long) {
		t.Errorf("samples = %d, want %d", got.Samples, len(long))
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how the acceptance spread is computed.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 10, 20, 11}, 2.75, 5.5, 10.25},
		{[]float64{1, 5}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// Only samples from measured slices count; with no calm slice every
// closed slice does; the open last slice never does.
func TestWindowKeepsCalmSlices(t *testing.T) {
	if !calmSlice(200*time.Millisecond, time.Second, 2) || calmSlice(201*time.Millisecond, time.Second, 2) {
		t.Error("a slice is calm up to 10% of the CPUs' time lost to steal")
	}
	w := &window{measured: []bool{true, false, true}, sliceCPU: []time.Duration{1, 10, 100}, kept: 2}
	xs, slices := []float64{1, 2, 3, 4}, []int{0, 1, 2, 3}
	if got := w.filter(xs, slices); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("kept %v, want [1 3]", got)
	}
	if got := w.keptCPU(); got != 101 {
		t.Errorf("kept CPU %v, want 101", got)
	}
	w = &window{measured: []bool{false, false}}
	if got := w.filter(xs, slices); len(got) != 2 {
		t.Errorf("with no calm slice kept %v, want the closed slices' [1 2]", got)
	}
}
