// Command stgqbench is the repository's benchmark: it runs one named
// workload against the planner, the durable journal, replication and the
// gateway, checks every output, and prints each end-to-end metric (or,
// with -trace 1, each per-layer metric) by name, with unit and sample
// count. The last line of standard output is the machine-readable
// result. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash stgqbench/run.sh --workload engine_paper --seed 1 --seconds 15 --trace 0
//	bash stgqbench/run.sh compare <results-dir-A> <results-dir-B>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// warmup is the untimed lead-in before measuring: caches fill and lazy
// set-up (calendar materialization, connection pools) finishes.
const warmup = 2 * time.Second

// buildDir holds everything a run leaves behind (durable state while it
// runs, traces, result files), relative to the checkout root run.sh
// starts the benchmark from.
const buildDir = ".bench_build"

type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	workDir  string // scratch space for durable state, inside the checkout
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"engine_paper":  runEngine,
	"cluster_read":  runClusterRead,
	"cluster_write": runClusterWrite,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "stgqbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stgqbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("stgqbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: engine_paper, cluster_read or cluster_write")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measured duration in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	workDir, err := os.MkdirTemp(mustMkdir(filepath.Join(buildDir, "state")), *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workDir:  workDir,
	}
	out, err := run(cfg)
	if err != nil {
		return err
	}
	res := buildResult(cfg, out)
	if cfg.trace && out.tracer != nil {
		path := filepath.Join(mustMkdir(filepath.Join(buildDir, "traces")),
			fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.tracer.WriteJSONL(path); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(out.spans), path)
	}
	resPath := filepath.Join(mustMkdir(filepath.Join(buildDir, "results")),
		fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, *trace))
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resPath, buf, 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	printResult(res)
	return nil
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "stgqbench:", err)
		os.Exit(1)
	}
	return dir
}

// metricValue is one printed metric. Samples is the number of raw
// samples the value was computed from (runs, requests or spans).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// Result is one run's full record, kept under the build directory for
// compare mode.
type Result struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	Fingerprint Fingerprint    `json:"fingerprint"`
	Correct     bool           `json:"correct"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	Failures    map[string]int `json:"failures"`
	// SlicesCalm of SlicesClosed one-second slices of the window were
	// calm enough to measure; with none calm, all were measured.
	SlicesCalm   int                    `json:"slices_calm"`
	SlicesClosed int                    `json:"slices_closed"`
	Violations   []string               `json:"violations,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
}

func buildResult(cfg runConfig, out *outcome) Result {
	ms := endToEnd(cfg, out)
	if cfg.trace {
		ms = perLayer(cfg, out)
	}
	return Result{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.duration.Seconds(),
		Trace:        cfg.trace,
		Fingerprint:  hostFingerprint(),
		Correct:      len(out.violations) == 0,
		Attempted:    out.attempted,
		Failed:       out.failedTotal(),
		Failures:     out.failures,
		SlicesCalm:   out.slicesCalm,
		SlicesClosed: out.slicesClosed,
		Violations:   out.violations,
		Metrics:      ms,
	}
}

// printResult prints the human-readable table, then, as the last line,
// the machine-readable result: correct, attempted, failed and every
// metric's value and unit.
func printResult(res Result) {
	fp := res.Fingerprint
	fmt.Printf("host: %s | nproc %d | GOMAXPROCS %d | %s | commit %s\n", fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	fmt.Printf("workload %s seed %d: attempted %d, failed %d %v, output-check violations %d\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.Failures, len(res.Violations))
	fmt.Printf("window: %d of %d one-second slices calm (host steal within %.0f%% of CPU time)",
		res.SlicesCalm, res.SlicesClosed, maxStealShare*100)
	if res.SlicesCalm == 0 {
		fmt.Print("; none calm, so every slice is measured")
	}
	fmt.Println()
	for i, v := range res.Violations {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(res.Violations)-10)
			break
		}
		fmt.Println("  violation:", v)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %14.6f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]short{}}
	for n, m := range res.Metrics {
		last.Metrics[n] = short{m.Value, m.Unit}
	}
	buf, _ := json.Marshal(last) // plain structs of numbers and strings
	fmt.Println(string(buf))
}
