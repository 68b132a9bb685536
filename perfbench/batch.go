package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/pipeline"
	"repro/internal/readsim"
)

// dataset is a workload's input: reads sampled from a fixed simulated
// genome, and the alignment backend they are assembled with.
type dataset struct {
	preset  readsim.Preset
	genome  int // simulated genome length, bases
	backend string
}

// overlapHeavy: low-error (0.5%) C. elegans-like reads with the wavefront
// aligner, so DetectOverlap (the SUMMA SpGEMM) dominates the run.
var overlapHeavy = dataset{readsim.CElegansLike, 60000, pipeline.BackendWFA}

// alignHeavy: high-error (15%) H. sapiens-like reads with the x-drop
// aligner (the default, and the paper's), so Alignment dominates the run.
var alignHeavy = dataset{readsim.HSapiensLike, 80000, pipeline.BackendXDrop}

// setupReps is how many times a batch run repeats its set-up; setup_s is
// the median, which a single scheduling hiccup cannot move.
const setupReps = 15

// genomeSeed fixes each workload's genome, its "organism". The run's seed
// drives only the sequencing: which reads are drawn and where their errors
// fall. A seed-drawn genome would move the work by more than the bounds
// allow (where its planted repeats land changes the SpGEMM product count),
// and that is not run-to-run noise a change to the program should answer
// for.
const genomeSeed = 1

// reads simulates the preset's sequencing run over the workload's genome:
// the preset's depth, read length and error rate, with the given seed.
func (d dataset) reads(seed int64) [][]byte {
	ref := readsim.Generate(d.preset, d.genome, genomeSeed)
	return readsim.Seqs(readsim.Simulate(ref.Genome, readsim.ReadConfig{
		Depth: ref.Depth, MeanLen: ref.MeanLen, ErrorRate: ref.ErrorRate, Seed: seed,
	}))
}

func (d dataset) options() pipeline.Options {
	o := pipeline.PresetOptions(d.preset, ranks)
	o.AlignBackend = d.backend
	return o
}

// runBatch measures one batch workload: untraced Engine.Run assemblies,
// back to back for the run's duration. A traced run follows each with a
// traced stage-stepped chain (the per-layer numbers); an untraced run makes
// one such chain after the measured window, as the reference every
// assembly is checked against.
func runBatch(ctx context.Context, cfg config, d dataset) (*result, error) {
	res := newResult(cfg)
	var reads [][]byte
	var setups []time.Duration
	for range setupReps {
		runtime.GC()
		t0 := time.Now()
		reads = d.reads(cfg.seed)
		setups = append(setups, time.Since(t0))
	}
	res.setInput(reads)
	opt := d.options()
	eng, err := pipeline.Plan(opt)
	if err != nil {
		return nil, err
	}

	var walls []time.Duration
	var got []fingerprint
	var chains []*chain
	stepped := func(rec *recorder) {
		ch, err := runChain(ctx, rec, traced(opt), reads, "")
		if err != nil {
			res.op("traced chain: " + err.Error())
			return
		}
		chains = append(chains, ch)
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		// Each assembly starts from a collected heap, as a fresh process would.
		runtime.GC()
		t0 := time.Now()
		out, err := eng.Run(ctx, reads)
		wall := time.Since(t0)
		if err != nil {
			res.op("assembly: " + err.Error())
			continue
		}
		walls = append(walls, wall)
		got = append(got, fingerprintOf(out))
		if cfg.trace {
			stepped(res.rec)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		stepped(nil)
	}

	var ref *fingerprint
	if len(chains) > 0 {
		fp := fingerprintOf(chains[0].Out)
		ref = &fp
		res.note("reference: %d contigs, %d comm bytes, work %v", fp.Contigs, fp.CommBytes, fp.Work)
		if cfg.seed == defaultSeed {
			res.op(pinProblem(cfg.workload, fp))
		}
	}
	for _, c := range chains {
		got = append(got, fingerprintOf(c.Out))
	}
	for _, fp := range got {
		res.op(against(fp, ref))
	}

	secs := medianDur(walls, time.Second)
	if !cfg.trace {
		res.metrics.set("assembly_s", secs, "s")
		res.metrics.set("setup_s", medianDur(setups, time.Second), "s")
		res.metrics.set("peak_rss_mb", rss, "MB")
		res.setTimings("assembly", walls)
		res.note("assembly walls (s): %.3f", scaled(walls, time.Second))
		return res, nil
	}
	layerMetrics(chains, res.metrics)
	setServeZero(res.metrics)
	chainWalls := make([]time.Duration, len(chains))
	for i, c := range chains {
		chainWalls[i] = c.Wall
	}
	res.metrics.set("trace_overhead_pct", overheadPct(medianDur(chainWalls, time.Second), secs), "%")
	if len(chains) > 0 {
		res.note("traced chain stage shares: %s; untraced assembly_s median %.3f s over %d", stageShares(chains[0]), secs, len(walls))
		if n := chains[0].Dropped; n > 0 {
			res.note("program trace ring dropped %d events; mpi.wait_ms undercounts", n)
		}
	}
	return res, nil
}

// pinProblem checks a workload's reference fingerprint at defaultSeed
// against its pin.
func pinProblem(workload string, fp fingerprint) string {
	pin, ok := pins[workload]
	if !ok {
		return "no pin for " + workload
	}
	if d := mismatch(fp, pin); d != "" {
		return fmt.Sprintf("reference differs from pin: %s (reference is %#v)", d, fp)
	}
	return ""
}

// against checks one assembly against the run's reference chain.
func against(fp fingerprint, ref *fingerprint) string {
	if ref == nil {
		return "no reference chain to check against"
	}
	if d := mismatch(fp, *ref); d != "" {
		return "differs from reference chain: " + d
	}
	return ""
}

// overheadPct is how much slower the traced figure is than the untraced one.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// setServeZero reports the serve layer's metrics on a workload that never
// reaches it: zero work, zero time.
func setServeZero(m metrics) {
	for _, name := range []string{"serve.submit_ms", "serve.cache_hit_ms", "serve.http_overhead_ms"} {
		m.set(name, 0, "ms")
	}
	m.set("serve.alloc_mb_per_job", 0, "MB")
	m.set("serve.cache_hit_ratio", 0, "ratio")
}

// peakRSSMB reads the process's peak resident set size (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
