// Command perfbench is the repository's benchmark: it generates a
// workload's reads from a seed, drives the assembler through its public
// entry points (the pipeline engine, and the assembly daemon over loopback
// HTTP), checks every output, and prints the workload's metrics. See
// README.md in this directory for the workloads, the metrics and how to run
// it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ranks is the simulated world size of every workload: P=4 goroutine ranks
// on the in-process transport.
const ranks = 4

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for result and trace files
}

// workloads maps each workload name to the function that runs it.
// BENCHMARK.json gates overlap-heavy and param-sweep; align-heavy runs by
// hand only, because its run-to-run spread exceeds the bounds (README.md).
var workloads = map[string]func(context.Context, config) (*result, error){
	"overlap-heavy": func(ctx context.Context, cfg config) (*result, error) { return runBatch(ctx, cfg, overlapHeavy) },
	"align-heavy":   func(ctx context.Context, cfg config) (*result, error) { return runBatch(ctx, cfg, alignHeavy) },
	"param-sweep":   runSweep,
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is what a workload run measured, checked and recorded.
type result struct {
	tally
	metrics metrics
	reads   int
	bases   int64
	notes   []string  // human-readable context: sample counts, percentiles, profile shape
	rec     *recorder // nil unless traced
}

func newResult(cfg config) *result {
	r := &result{metrics: metrics{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r
}

// setInput records the size of the generated input.
func (r *result) setInput(reads [][]byte) {
	r.reads, r.bases = len(reads), 0
	for _, s := range reads {
		r.bases += int64(len(s))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setTimings reports a sample of operation latencies as the job_* metrics:
// the median, the highest percentile up to p95 with at least minTail
// samples beyond it, and operations per second of latency (one closed-loop
// client, so this is the throughput that client saw).
func (r *result) setTimings(what string, lat []time.Duration) {
	msv := scaled(lat, time.Millisecond)
	p95 := tail(msv, 95)
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	r.metrics.set("job_p50_ms", median(msv), "ms")
	r.metrics.set("job_p95_ms", p95.Value, "ms")
	if total > 0 {
		r.metrics.set("jobs_per_s", float64(len(lat))/total.Seconds(), "1/s")
	}
	r.note("%s latency over %d samples: median %.2f ms; job_p95_ms reports p%d = %.2f ms", what, p95.N, median(msv), p95.Pct, p95.Value)
}

// stamp identifies the host, toolchain, code and input behind a result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Reads      int     `json:"input_reads"`
	Bases      int64   `json:"input_bases"`
	FailedFrac float64 `json:"failed_frac"`
}

// commit reports the VCS revision the binary was built from, when the
// build could see one ("unknown" when built outside a repository).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var secs, traceFlag int
	names := slices.Sorted(maps.Keys(workloads))
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, " | "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input generation seed (outputs are pinned for seed "+strconv.Itoa(defaultSeed)+")")
	flag.IntVar(&secs, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for result and trace files")
	flag.Parse()
	runWorkload, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = traceFlag == 1
	// One closed-loop client in one process: never more Go threads running
	// than the machine has CPUs.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	st := stamp{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: secs, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Reads: res.reads, Bases: res.bases,
		FailedFrac: float64(res.failed) / float64(max(res.attempted, 1)),
	}
	final := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics}

	for _, n := range slices.Sorted(maps.Keys(res.metrics)) {
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for _, n := range res.problems {
		fmt.Fprintln(os.Stderr, "FAILED:", n)
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, traceFlag))
	other := map[string]any{"stamp": st, "result": final, "notes": res.notes, "failures": res.problems}
	if err := res.rec.writeFile(base+".json", other); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return 1
	}
	stampLine, err := json.Marshal(map[string]any{"stamp": st})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding stamp:", err)
		return 1
	}
	resultLine, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", stampLine, resultLine)
	return 0
}
