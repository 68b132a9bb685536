package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// stageLayer names the program layer each stage's engine call exercises.
var stageLayer = map[string]string{
	pipeline.StageFastaReader:   "pipeline",
	pipeline.StageCountKmer:     "kmer",
	pipeline.StageDetectOverlap: "spmat",
	pipeline.StageAlignment:     "align",
	pipeline.StageTrReduction:   "tr",
	pipeline.StageExtractContig: "core",
}

// stageCall is what one engine call of a chain did: its wall time, the heap
// bytes allocated during it, and the cross-rank accounting of its stage.
type stageCall struct {
	Wall  time.Duration
	Alloc uint64
	Entry trace.SummaryEntry
}

// chain is one traced, stage-stepped assembly.
type chain struct {
	Out     *pipeline.Output
	Calls   map[string]stageCall // by stage; only the stages this chain ran
	Wall    time.Duration        // first engine call through Output
	Bytes   int64                // bytes and messages the chain's world moved
	Msgs    int64
	WaitNs  int64 // blocked mpi time (recv.wait, wait:*) summed over ranks
	Dropped int64 // trace events the program's ring buffers overwrote
}

// runChain assembles reads one stage per engine call, with a span around
// every call. With entryDir empty the chain starts with
// RunUntil(FastaReader); otherwise it loads the committed checkpoint under
// entryDir (a cache entry) and resumes from the stage after it, which is
// the work a cache hit does. When opt.Trace is set (see traced), the chain
// also reads the program's blocked-wait spans from it.
func runChain(ctx context.Context, rec *recorder, opt pipeline.Options, reads [][]byte, entryDir string) (*chain, error) {
	eng, err := pipeline.Plan(opt)
	if err != nil {
		return nil, err
	}
	ch := &chain{Calls: map[string]stageCall{}}
	run := rec.newRun()
	root := rec.begin(run, 0, "pipeline", "chain")
	defer rec.end(root)
	start := time.Now()
	stages := pipeline.StageNames()
	var a *pipeline.Artifacts
	if entryDir == "" {
		a, err = ch.call(rec, run, root, stages[0], func() (*pipeline.Artifacts, error) {
			return eng.RunUntil(ctx, reads, stages[0])
		})
	} else {
		id := rec.begin(run, root, "pipeline", "LoadCheckpoint")
		a, err = eng.LoadCheckpoint(ctx, reads, entryDir)
		rec.end(id)
	}
	if err != nil {
		return nil, err
	}
	defer a.Close()
	for _, s := range stages[slices.Index(stages, a.Stage())+1:] {
		prev := a
		a, err = ch.call(rec, run, root, s, func() (*pipeline.Artifacts, error) {
			return eng.ResumeFrom(ctx, prev, s)
		})
		if err != nil {
			return nil, err
		}
	}
	if ch.Out, err = a.Output(); err != nil {
		return nil, err
	}
	ch.Wall = time.Since(start)
	ch.Bytes, ch.Msgs = a.World.TotalBytes(), a.World.TotalMsgs()
	for r := range opt.Trace.Ranks() {
		lane := opt.Trace.Rank(r)
		ch.Dropped += lane.Dropped()
		for _, ev := range lane.Events() {
			if ev.Ph == 'X' && (ev.Name == "recv.wait" || strings.HasPrefix(ev.Name, "wait:")) {
				ch.WaitNs += ev.Dur
			}
		}
	}
	return ch, nil
}

// traced returns opt with the program's own tracing (Options.Trace) on.
func traced(opt pipeline.Options) pipeline.Options {
	opt.Trace = obs.NewTrace(opt.P)
	return opt
}

// call runs one engine call of the chain under a span and records it.
func (ch *chain) call(rec *recorder, run, parent int, stage string, fn func() (*pipeline.Artifacts, error)) (*pipeline.Artifacts, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := rec.begin(run, parent, stageLayer[stage], stage)
	t0 := time.Now()
	a, err := fn()
	wall := time.Since(t0)
	rec.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", stage, err)
	}
	ch.Calls[stage] = stageCall{Wall: wall, Alloc: m1.TotalAlloc - m0.TotalAlloc, Entry: a.Aggregate().Get(stage)}
	return a, nil
}

// layerMetrics derives the per-layer metrics from a run's traced chains:
// times and allocations are medians over the chains, counts come from the
// last chain (every chain is checked against the reference for its options).
// A layer the chains never called reports zero work and zero time.
func layerMetrics(chains []*chain, m metrics) {
	if len(chains) == 0 {
		return
	}
	last := chains[len(chains)-1]
	ran := func(stage string) bool { _, ok := last.Calls[stage]; return ok }
	entry := func(stage string) trace.SummaryEntry { return last.Calls[stage].Entry }
	med := func(f func(*chain) float64) float64 {
		v := make([]float64, len(chains))
		for i, c := range chains {
			v[i] = f(c)
		}
		return median(v)
	}
	wallMS := func(stage string) float64 {
		return med(func(c *chain) float64 { return ms(c.Calls[stage].Wall) })
	}
	allocMB := func(stage string) float64 {
		return med(func(c *chain) float64 { return float64(c.Calls[stage].Alloc) / 1e6 })
	}
	perSecond := func(work int64, wallMS float64) float64 {
		if wallMS == 0 {
			return 0
		}
		return float64(work) / (wallMS / 1e3)
	}
	imbalance := func(stage string) float64 {
		e := entry(stage)
		if e.SumWork == 0 {
			return 0
		}
		return float64(e.MaxWork) * float64(last.Out.Stats.P) / float64(e.SumWork)
	}
	cgMS := func(sub string) float64 {
		return med(func(c *chain) float64 { return ms(c.Out.Stats.Timers.Dur(sub)) })
	}
	st := last.Out.Stats

	m.set("pipeline.fasta_ms", wallMS(pipeline.StageFastaReader), "ms")

	kmer := entry(pipeline.StageCountKmer)
	m.set("kmer.wall_ms", wallMS(pipeline.StageCountKmer), "ms")
	m.set("kmer.occurrences", float64(kmer.SumWork), "count")
	m.set("kmer.bytes", float64(kmer.SumBytes), "B")
	m.set("kmer.alloc_mb", allocMB(pipeline.StageCountKmer), "MB")

	sp := entry(pipeline.StageDetectOverlap)
	spWall := wallMS(pipeline.StageDetectOverlap)
	var candidates int64
	if ran(pipeline.StageDetectOverlap) {
		candidates = st.CandidatePairs
	}
	m.set("spmat.wall_ms", spWall, "ms")
	m.set("spmat.products", float64(sp.SumWork), "count")
	m.set("spmat.products_per_s", perSecond(sp.SumWork, spWall), "1/s")
	m.set("spmat.candidates", float64(candidates), "count")
	m.set("spmat.bytes", float64(sp.SumBytes), "B")
	m.set("spmat.imbalance", imbalance(pipeline.StageDetectOverlap), "ratio")
	m.set("spmat.alloc_mb", allocMB(pipeline.StageDetectOverlap), "MB")

	al := entry(pipeline.StageAlignment)
	alWall := wallMS(pipeline.StageAlignment)
	var kept float64
	if ran(pipeline.StageAlignment) && st.CandidatePairs > 0 {
		kept = float64(st.KeptOverlaps) / float64(st.CandidatePairs)
	}
	m.set("align.wall_ms", alWall, "ms")
	m.set("align.cells", float64(al.SumWork), "count")
	m.set("align.cells_per_s", perSecond(al.SumWork, alWall), "1/s")
	m.set("align.imbalance", imbalance(pipeline.StageAlignment), "ratio")
	m.set("align.kept_ratio", kept, "ratio")

	m.set("tr.wall_ms", wallMS(pipeline.StageTrReduction), "ms")
	m.set("tr.products", float64(entry(pipeline.StageTrReduction).SumWork), "count")
	m.set("tr.iterations", float64(st.TR.Iterations), "count")

	var loadImb float64
	if st.AssignedReads > 0 {
		loadImb = float64(st.MaxLoad) * float64(st.P) / float64(st.AssignedReads)
	}
	m.set("core.wall_ms", wallMS(pipeline.StageExtractContig), "ms")
	m.set("core.work", float64(entry(pipeline.StageExtractContig).SumWork), "count")
	m.set("core.induced_subgraph_ms", cgMS("CG:InducedSubgraph"), "ms")
	m.set("core.sequence_comm_ms", cgMS("CG:SequenceComm"), "ms")
	m.set("core.local_assembly_ms", cgMS("CG:LocalAssembly"), "ms")
	m.set("core.load_imbalance", loadImb, "ratio")

	var exposed int64
	for _, c := range last.Calls {
		exposed += c.Entry.SumExposedBytes()
	}
	m.set("mpi.bytes", float64(last.Bytes), "B")
	m.set("mpi.msgs", float64(last.Msgs), "count")
	m.set("mpi.exposed_bytes", float64(exposed), "B")
	m.set("mpi.wait_ms", med(func(c *chain) float64 {
		return float64(c.WaitNs) / float64(c.Out.Stats.P) / 1e6
	}), "ms")
}

// stageShares formats each stage's share of a chain's summed stage wall
// time, the figure the known profile shape is read from.
func stageShares(c *chain) string {
	var total time.Duration
	for _, call := range c.Calls {
		total += call.Wall
	}
	var parts []string
	for _, s := range pipeline.StageNames() {
		if call, ok := c.Calls[s]; ok && total > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.1f%%", s, 100*float64(call.Wall)/float64(total)))
		}
	}
	return fmt.Sprintf("%s (stage sum %.0f ms)", strings.Join(parts, " "), ms(total))
}

// ms converts a duration to float64 milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
