package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// outcome is what a workload hands back: raw samples and counts, from
// which the metrics are computed.
type outcome struct {
	setups     []float64 // seconds per set-up repetition
	attempted  int
	searches   int // completed searches, infeasible included
	infeasible int
	failures   map[string]int // transport, 412, 5xx, 4xx, other
	violations []string

	queryMs, writeMs []float64 // end-to-end samples (untraced)
	// Trace runs interleave traced and untraced requests; these are
	// their end-to-end samples, for the tracing overhead.
	tracedMs, untracedMs []float64
	cpu                  time.Duration // process CPU spent on the measured ops
	wall                 time.Duration
	heapMB               float64
	// slicesCalm of slicesClosed one-second slices of the window were
	// calm enough to measure (see window); with none calm, all count.
	slicesCalm, slicesClosed int

	coreStats              core.Stats
	labelHits, labelMisses int
	radiusVertices         []float64

	// layer carries per-layer values a workload measured directly
	// (cluster header rows, store deltas, ...), with sample counts.
	layer map[string]metricValue

	spans  []Span
	tracer *Tracer

	start      time.Time
	steal0     time.Duration
	stealMs    float64
	pause0     uint64
	sched0     *metrics.Float64Histogram
	gcPauseMs  float64
	schedP99Ms float64
	schedN     int
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int{}, layer: map[string]metricValue{}}
}

func (o *outcome) fail(class string, err error) {
	o.failures[class]++
	if o.failures[class] <= 3 {
		fmt.Fprintf(os.Stderr, "stgqbench: %s failure: %v\n", class, err)
	}
}

func (o *outcome) failedTotal() int {
	n := 0
	for _, c := range o.failures {
		n += c
	}
	return n
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

const schedMetric = "/sched/latencies:seconds"

func readSched() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: schedMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// begin marks the start of the measured window.
func (o *outcome) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.pause0 = ms.PauseTotalNs
	o.sched0 = readSched()
	o.steal0 = hostSteal()
	o.start = time.Now()
}

// hostSteal is the CPU time the hypervisor gave to other guests (the
// steal column of /proc/stat, summed over CPUs), 0 where unavailable.
// It tells a slow run on a shared host from a slow program.
func hostSteal() time.Duration {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// finish closes the measured window and takes the runtime deltas: total
// GC stop-the-world pause, and the scheduling-latency p99 from the
// runtime's own fine-grained histogram (the upper edge of the bucket
// holding the 99th percentile).
func (o *outcome) finish() {
	o.wall = time.Since(o.start)
	o.stealMs = ms(hostSteal() - o.steal0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.gcPauseMs = float64(ms.PauseTotalNs-o.pause0) / 1e6
	h1 := readSched()
	if h1 == nil || o.sched0 == nil {
		return
	}
	var total uint64
	counts := make([]uint64, len(h1.Counts))
	for i := range h1.Counts {
		counts[i] = h1.Counts[i] - o.sched0.Counts[i]
		total += counts[i]
	}
	o.schedN = int(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			hi := h1.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h1.Buckets[i]
			}
			o.schedP99Ms = hi * 1000
			break
		}
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// liveHeapMB is the live heap after forced collections; workloads call
// it while the system under test is still referenced. It collects
// twice: sync.Pool caches are emptied over two cycles, and whether one
// survived a single collection made the figure jump by about 1 MB
// between runs.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// pct summarizes raw samples: the q-quantile and the sample count.
func pct(xs []float64, q float64, unit string) metricValue {
	return metricValue{Value: finite(quantile(sortedCopy(xs), q)), Unit: unit, Samples: len(xs)}
}

// Latency percentiles are taken per slice: the run's samples, in the
// order they were taken, are cut into consecutive equal-count slices of
// at least minSlice samples and at most maxSlices slices (about one per
// second of a 15 s run), and the median of the slices' percentiles is
// reported. A burst of host contention then moves the slices it falls
// in, not the figure, while a change that moves every request moves
// every slice. Only the medians are end-to-end metrics: on a shared
// 2-vCPU host whose speed drifts for minutes at a time, the run-to-run
// spread of the cluster workloads' p90 and p99 reached 0.5 to 1.1 of
// their median, wider than any usable regression bound, so the tails
// are traced-run diagnostics.
const (
	minSlice  = 100
	maxSlices = 15
)

// slicedPct is the q-quantile of each slice of xs, medianed over the
// slices.
func slicedPct(xs []float64, q float64, unit string) metricValue {
	n := min(max(len(xs)/minSlice, 1), maxSlices)
	per := make([]float64, n)
	for w := range per {
		lo, hi := w*len(xs)/n, (w+1)*len(xs)/n
		per[w] = quantile(sortedCopy(xs[lo:hi]), q)
	}
	return metricValue{Value: finite(quantile(sortedCopy(per), 0.5)), Unit: unit, Samples: len(xs)}
}

// slicedRate is operations per second of busy time, from per-op times
// in ms: taken per slice as for slicedPct, and medianed over the slices,
// so a burst of host contention moves only the slices it falls in.
func slicedRate(xs []float64) metricValue {
	n := min(max(len(xs)/minSlice, 1), maxSlices)
	per := make([]float64, n)
	for w := range per {
		lo, hi := w*len(xs)/n, (w+1)*len(xs)/n
		busy := 0.0
		for _, x := range xs[lo:hi] {
			busy += x
		}
		per[w] = ratio(float64(hi-lo), busy/1000)
	}
	return metricValue{Value: quantile(sortedCopy(per), 0.5), Unit: "1/s", Samples: len(xs)}
}

// endToEnd computes the metrics a user of the system sees. Every one is
// a timing, a rate or a size that is never 0 on a working run.
func endToEnd(cfg runConfig, o *outcome) map[string]metricValue {
	ops := len(o.queryMs) + len(o.writeMs)
	m := map[string]metricValue{
		"setup_s":       pct(o.setups, 0.5, "s"),
		"query_p50_ms":  slicedPct(o.queryMs, 0.5, "ms"),
		"write_p50_ms":  slicedPct(o.writeMs, 0.5, "ms"),
		"cpu_ms_per_op": {Value: ratio(ms(o.cpu), float64(ops)), Unit: "ms", Samples: ops},
		"heap_mb":       {Value: o.heapMB, Unit: "MB", Samples: 1},
	}
	return m
}

// opsPerSecond is the throughput figure. On engine_paper, one
// closed-loop caller: searches completed per second of search time at
// the stated input size. It is a traced-run figure, not a bounded one:
// as the reciprocal of a mean over a heavy-tailed cost, it moved about
// twice as far as query_p50_ms when the shared host slowed. On the
// cluster workloads the offered rate is fixed, so it reads that rate
// until the connections saturate; cpu_ms_per_op is the cluster's
// capacity figure.
func opsPerSecond(cfg runConfig, o *outcome) metricValue {
	if cfg.workload == "engine_paper" {
		return slicedRate(o.queryMs)
	}
	ops := len(o.queryMs) + len(o.writeMs)
	slices := o.slicesCalm
	if slices == 0 {
		slices = o.slicesClosed
	}
	return metricValue{Value: ratio(float64(ops), float64(slices)*sliceLen.Seconds()), Unit: "1/s", Samples: ops}
}

// perLayer computes the traced run's per-layer metrics. Metrics of a
// layer the workload does not cross read 0 with 0 samples.
func perLayer(cfg runConfig, o *outcome) map[string]metricValue {
	reqs := perRequest(o.spans)
	m := map[string]metricValue{}
	selfMean := func(layer string) metricValue {
		xs := layerSamples(reqs, layer, true)
		// Mean, not median: the per-layer means add up to the mean
		// end-to-end time, which is what attribution needs.
		return metricValue{Value: mean(xs), Unit: "ms", Samples: len(xs)}
	}
	m["index.self_ms"] = selfMean("index")
	m["socialgraph.extract_ms"] = pct(layerSamples(reqs, "socialgraph", false), 0.5, "ms")
	m["socialgraph.radius_vertices"] = metricValue{Value: mean(o.radiusVertices), Unit: "count", Samples: len(o.radiusVertices)}
	coreMs := layerSamples(reqs, "core", false)
	m["core.search_ms"] = pct(coreMs, 0.5, "ms")
	m["core.search_p99_ms"] = pct(coreMs, 0.99, "ms")
	m["index.label_hit_ratio"] = metricValue{Value: ratio(float64(o.labelHits), float64(o.labelHits+o.labelMisses)), Unit: "ratio", Samples: o.labelHits + o.labelMisses}

	n := float64(o.searches)
	perSearch := func(v int64) metricValue {
		return metricValue{Value: ratio(float64(v), n), Unit: "count", Samples: o.searches}
	}
	st := o.coreStats
	m["core.nodes_expanded"] = perSearch(st.NodesExpanded)
	m["core.vertices_examined"] = perSearch(st.VerticesExamined)
	m["core.pivots_processed"] = perSearch(st.PivotsProcessed)
	m["core.pivots_skipped"] = perSearch(st.PivotsSkipped)
	m["core.prunes_distance"] = perSearch(st.DistancePrunes)
	m["core.prunes_acquaintance"] = perSearch(st.AcquaintancePrunes)
	m["core.prunes_availability"] = perSearch(st.AvailabilityPrunes)
	m["core.infeasible_ratio"] = metricValue{Value: ratio(float64(o.infeasible), n), Unit: "ratio", Samples: o.searches}

	m["gateway.self_ms"] = selfMean("gateway")
	m["client.self_ms"] = selfMean("client")
	for _, name := range []string{
		"stgq.self_ms", "gateway.cache_hit_ratio", "gateway.ryw_leader_retry_ratio",
		"service.read_ms", "service.write_ms", "service.engine_ms",
		"journal.enqueue_ms", "journal.fsync_ms", "journal.records_per_fsync",
		"journal.fsyncs_per_s", "journal.snapshots",
		"replica.visible_ms", "replica.visible_p99_ms", "client.late_p99_ms",
	} {
		v, ok := o.layer[name]
		if !ok {
			v = metricValue{Unit: layerUnit(name)}
		}
		m[name] = v
	}
	// Core counters the cluster reads from the engine's own metrics
	// override the (empty) span-derived ones.
	for name, v := range o.layer {
		if strings.HasPrefix(name, "core.") {
			m[name] = v
		}
	}

	m["client.ops_per_s"] = opsPerSecond(cfg, o)
	att := float64(o.attempted)
	m["client.error_ratio"] = metricValue{Value: ratio(float64(o.failedTotal()), att), Unit: "ratio", Samples: o.attempted}
	for _, c := range []string{"transport", "412", "5xx", "4xx"} {
		m["client.fail_"+c] = metricValue{Value: float64(o.failures[c]), Unit: "count", Samples: o.attempted}
	}
	// The tails: sliced p90 as for the end-to-end medians, and the
	// whole-run p99, where every stall shows.
	m["client.query_p90_ms"] = slicedPct(o.queryMs, 0.9, "ms")
	m["client.write_p90_ms"] = slicedPct(o.writeMs, 0.9, "ms")
	m["client.query_p99_ms"] = pct(o.queryMs, 0.99, "ms")
	m["client.write_p99_ms"] = pct(o.writeMs, 0.99, "ms")
	m["runtime.gc_pause_ms"] = metricValue{Value: o.gcPauseMs, Unit: "ms", Samples: 1}
	m["runtime.sched_latency_p99_ms"] = metricValue{Value: o.schedP99Ms, Unit: "ms", Samples: o.schedN}
	m["host.steal_ms"] = metricValue{Value: o.stealMs, Unit: "ms", Samples: 1}

	// Tracing overhead: traced minus untraced end-to-end median, both
	// measured in this run on interleaved requests.
	m["trace.overhead_ms"] = metricValue{
		Value:   finite(quantile(sortedCopy(o.tracedMs), 0.5) - quantile(sortedCopy(o.untracedMs), 0.5)),
		Unit:    "ms",
		Samples: len(o.tracedMs),
	}
	return m
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	}
	return "count"
}

// Fingerprint identifies the host and build a result came from. Compare
// mode refuses to pair results whose host fields differ; Commit and
// Source name the code and may differ.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

// SameHost reports whether two results were measured on the same kind
// of host with the same toolchain.
func (f Fingerprint) SameHost(g Fingerprint) bool {
	return f.CPU == g.CPU && f.NumCPU == g.NumCPU && f.GOMAXPROCS == g.GOMAXPROCS && f.GoVersion == g.GoVersion
}

func hostFingerprint() Fingerprint {
	return Fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is HEAD when the checkout itself is a git work tree, ""
// otherwise (the source hash still identifies the code). git is kept
// from searching above the checkout for an enclosing repository.
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file under root, skipping
// hidden directories (build output, VCS metadata).
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
