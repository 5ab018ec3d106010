package main

import (
	"runtime"
	"time"
)

// On a shared host, other guests' load shows as steal: time the
// hypervisor kept one of this guest's runnable vCPUs off the CPU. On the
// 2-vCPU VMs this benchmark was built on, steal came in episodes of one
// to three minutes, every eight minutes or so, taking 25-45% of the
// CPUs' time, against under 2% otherwise. An episode doubled the
// cluster workloads' latencies while their CPU per op held, so a set
// of runs that caught one spread far past any usable bound. The
// measured phase is therefore cut into one-second slices, and only
// slices that the steal counter shows calm are measured.
const (
	sliceLen = time.Second
	// maxStealShare is the share of the CPUs' time a slice may lose to
	// steal and still count as calm.
	maxStealShare = 0.10
	// windowCap bounds the measured phase at this many times the
	// requested seconds, calm or not: long enough to outlast an episode.
	windowCap = 8
	// settleMax bounds the wait for a calm second before set-up.
	settleMax = 10 * time.Second
)

// calmSlice reports whether steal over an interval of length d stayed
// within maxStealShare of ncpu CPUs' time.
func calmSlice(steal, d time.Duration, ncpu int) bool {
	return float64(steal) <= maxStealShare*float64(ncpu)*float64(d)
}

// window is the measured phase of a run, cut into one-second slices. A
// slice is measured when it and the slice before it were calm: work
// queued in a stolen slice still weighs on the next. The phase is over
// once it holds the requested number of measured slices, or after
// windowCap times that.
type window struct {
	want     int
	start    time.Time
	closedAt time.Time
	steal    time.Duration // host steal when the last slice closed
	cpu      time.Duration // process CPU when the last slice closed
	prevCalm bool

	measured []bool          // per closed slice
	sliceCPU []time.Duration // process CPU per closed slice
	kept     int
}

func newWindow(seconds int) *window { return &window{want: seconds} }

// begin starts the first slice at t.
func (w *window) begin(t time.Time) {
	w.start, w.closedAt = t, t
	w.steal, w.cpu = hostSteal(), processCPU()
	w.prevCalm = true
}

// slice is the index of the slice time t falls in.
func (w *window) slice(t time.Time) int { return int(t.Sub(w.start) / sliceLen) }

// tick closes every slice that has ended by now and reports whether the
// measured phase is over. When it is called late, the slices it closes
// share the steal of the whole interval.
func (w *window) tick(now time.Time) bool {
	n := w.slice(now) - len(w.measured)
	if n > 0 {
		steal, cpu := hostSteal(), processCPU()
		calm := calmSlice(steal-w.steal, now.Sub(w.closedAt), runtime.NumCPU())
		for i := 0; i < n; i++ {
			m := calm && w.prevCalm
			w.measured = append(w.measured, m)
			w.sliceCPU = append(w.sliceCPU, (cpu-w.cpu)/time.Duration(n))
			if m {
				w.kept++
			}
			w.prevCalm = calm
		}
		w.steal, w.cpu, w.closedAt = steal, cpu, now
	}
	return w.kept >= w.want || len(w.measured) >= windowCap*w.want
}

// keep reports whether samples taken in slice i count: slice i was
// measured or, if the phase measured none, merely closed. Samples from
// the last, unclosed slice never count.
func (w *window) keep(i int) bool {
	if i < 0 || i >= len(w.measured) {
		return false
	}
	return w.measured[i] || w.kept == 0
}

// filter returns the samples xs whose slice (slices[j] for xs[j]) is
// kept.
func (w *window) filter(xs []float64, slices []int) []float64 {
	var out []float64
	for j, x := range xs {
		if w.keep(slices[j]) {
			out = append(out, x)
		}
	}
	return out
}

// keptCPU is the process CPU over the kept slices.
func (w *window) keptCPU() time.Duration {
	var d time.Duration
	for i, c := range w.sliceCPU {
		if w.keep(i) {
			d += c
		}
	}
	return d
}

// settle waits, up to settleMax, for one calm second, so that set-up is
// not timed inside a steal episode.
func settle() {
	deadline := time.Now().Add(settleMax)
	for time.Now().Before(deadline) {
		s0, t0 := hostSteal(), time.Now()
		time.Sleep(sliceLen)
		if calmSlice(hostSteal()-s0, time.Since(t0), runtime.NumCPU()) {
			return
		}
	}
}
