package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/fasta"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// sweepFuzz are the tr_fuzz values the hit jobs cycle through. tr_fuzz is
// consumed only downstream of Alignment, so every one of them shares the
// cold job's cache entry.
var sweepFuzz = []int32{50, 100, 150, 200, 250, 300, 350, 400}

// sweepSetupReps is how many daemons a param-sweep run starts (and uploads
// to); setup_s is the median and the last one serves the run.
const sweepSetupReps = 7

// jobsPerDaemon bounds how many hit jobs one daemon serves before the run
// restarts it on the same cache directory (committed entries survive the
// restart, so jobs keep hitting). The daemon keeps every job it has run, with
// its per-job trace ring (about 21 MB at P=4), until it exits, so one daemon
// serving a whole run would grow by gigabytes; peak_rss_mb shows what this
// many retained jobs cost.
const jobsPerDaemon = 16

// daemon is one in-process assembly server on a loopback listener, with a
// read set uploaded.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	client  *http.Client
	base    string
	dir     string // cache directory
	dataset string
	served  chan struct{} // closed when hs.Serve returns
}

// startDaemon starts a server with its artifact cache under dir, serves it
// on a loopback port and uploads body (a FASTA read set of n reads).
func startDaemon(dir string, body []byte, n int) (*daemon, error) {
	srv, err := serve.New(serve.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{}},
		base:   "http://" + ln.Addr().String(), dir: dir,
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	var up struct {
		ID    string `json:"id"`
		Reads int    `json:"reads"`
	}
	if err := d.call(http.MethodPost, "/datasets", "text/plain", body, http.StatusOK, &up); err != nil {
		d.stop()
		return nil, fmt.Errorf("uploading reads: %w", err)
	}
	if up.Reads != n {
		d.stop()
		return nil, fmt.Errorf("upload parsed %d reads, sent %d", up.Reads, n)
	}
	d.dataset = up.ID
	return d, nil
}

// stop closes the listener and open connections, then the server's
// workers, and waits for both. The cache directory stays.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// call makes one request and decodes a JSON reply into out (nil: discard).
func (d *daemon) call(method, path, ctype string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// jobRun is one job as the client saw it.
type jobRun struct {
	fuzz     int32
	latency  time.Duration // submit through fetched contigs
	submit   time.Duration // POST /jobs alone
	cache    string        // the job's "cache" event: hit or miss
	checksum string        // of the fetched contigs
}

// job submits one assembly of the uploaded reads (wfa, tr_fuzz fuzz; 0 keeps
// the default), follows its event stream to the end and fetches its contigs.
func (d *daemon) job(rec *recorder, fuzz int32) (jobRun, error) {
	jr := jobRun{fuzz: fuzz}
	run := rec.newRun()
	root := rec.begin(run, 0, "serve", "job")
	defer rec.end(root)
	spec, err := json.Marshal(serve.JobSpec{Dataset: d.dataset, Backend: pipeline.BackendWFA, TRFuzz: fuzz})
	if err != nil {
		return jr, err
	}
	t0 := time.Now()
	sp := rec.begin(run, root, "serve", "submit")
	var sub struct{ ID string }
	err = d.call(http.MethodPost, "/jobs", "application/json", spec, http.StatusAccepted, &sub)
	rec.end(sp)
	jr.submit = time.Since(t0)
	if err != nil {
		return jr, err
	}
	sp = rec.begin(run, root, "serve", "events")
	state, err := d.follow(sub.ID, &jr.cache)
	rec.end(sp)
	if err != nil {
		return jr, err
	}
	if state != "done" {
		return jr, fmt.Errorf("job %s ended %s", sub.ID, state)
	}
	sp = rec.begin(run, root, "serve", "contigs")
	jr.checksum, err = d.contigs(sub.ID)
	rec.end(sp)
	jr.latency = time.Since(t0)
	return jr, err
}

// follow reads a job's SSE stream until its terminal event and returns that
// event's type, storing the detail of the "cache" event in cache.
func (d *daemon) follow(id string, cache *string) (string, error) {
	resp, err := d.client.Get(d.base + "/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events of %s: %w", id, err)
		}
		switch ev.Type {
		case "cache":
			*cache = ev.Detail
		case "done", "failed", "cancelled":
			return ev.Type, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events of %s ended without a terminal event", id)
}

// contigs fetches a finished job's contig FASTA and returns its checksum.
func (d *daemon) contigs(id string) (string, error) {
	resp, err := d.client.Get(d.base + "/jobs/" + id + "/contigs")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("contigs of %s: status %d", id, resp.StatusCode)
	}
	return contigChecksum(resp.Body)
}

// runSweep measures the param-sweep workload: one cold job (a cache miss:
// the full assembly plus the post-Alignment checkpoint commit), then hit
// jobs that differ only in tr_fuzz for the run's duration, all from one
// closed-loop client. A traced run adds, per hit job, a direct Cache.Assemble
// hit and a stage-stepped hit chain, traced and untraced. After the measured
// window every job is checked against a reference: RunUntil(Alignment), then
// one ResumeFrom per tr_fuzz value.
func runSweep(ctx context.Context, cfg config) (*result, error) {
	sw := &sweep{res: newResult(cfg), opt: overlapHeavy.options(), wantMisses: 1}
	setups, err := sw.setup(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		sw.d.stop()
		os.RemoveAll(sw.d.dir)
	}()

	cold, err := sw.d.job(nil, 0)
	if err == nil && cold.cache != "miss" {
		err = fmt.Errorf("cold job reported cache %q, want miss", cold.cache)
	}
	if err != nil {
		return nil, fmt.Errorf("cold job: %w", err)
	}
	cold.fuzz = sw.opt.TRFuzz

	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		if i > 0 && i%jobsPerDaemon == 0 {
			if err := sw.restart(); err != nil {
				return nil, err
			}
		}
		fuzz := sweepFuzz[i%len(sweepFuzz)]
		if sw.hitJob(fuzz) && cfg.trace {
			sw.tracedHits(ctx, fuzz)
		}
	}
	sw.checkCounters()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sw.check(ctx, cfg, cold)

	res := sw.res
	if !cfg.trace {
		res.metrics.set("assembly_s", cold.latency.Seconds(), "s")
		res.metrics.set("setup_s", medianDur(setups, time.Second), "s")
		res.metrics.set("peak_rss_mb", rss, "MB")
		res.setTimings("hit job", sw.lat)
		res.note("cold job (cache miss) %.3f s", cold.latency.Seconds())
		return res, nil
	}
	var chains []*chain // traced hit chains, for the per-layer metrics
	var plainWalls, tracedWalls []time.Duration
	for _, hc := range sw.chains {
		if hc.traced {
			chains = append(chains, hc.ch)
			tracedWalls = append(tracedWalls, hc.ch.Wall)
		} else {
			plainWalls = append(plainWalls, hc.ch.Wall)
		}
	}
	layerMetrics(chains, res.metrics)
	var direct []time.Duration
	for _, h := range sw.direct {
		direct = append(direct, h.wall)
	}
	hitMS, latMS := medianDur(direct, time.Millisecond), medianDur(sw.lat, time.Millisecond)
	res.metrics.set("serve.submit_ms", medianDur(sw.submits, time.Millisecond), "ms")
	res.metrics.set("serve.cache_hit_ms", hitMS, "ms")
	res.metrics.set("serve.http_overhead_ms", latMS-hitMS, "ms")
	res.metrics.set("serve.alloc_mb_per_job", median(sw.allocs), "MB")
	if n := sw.hits + sw.misses; n > 0 {
		res.metrics.set("serve.cache_hit_ratio", float64(sw.hits)/float64(n), "ratio")
	}
	res.metrics.set("trace_overhead_pct", overheadPct(medianDur(tracedWalls, time.Millisecond), medianDur(plainWalls, time.Millisecond)), "%")
	if len(chains) > 0 {
		res.note("traced hit chain stage shares: %s; hit jobs n=%d", stageShares(chains[0]), len(sw.lat))
	}
	return res, nil
}

// sweep is the state of one param-sweep run.
type sweep struct {
	res   *result
	opt   pipeline.Options // the jobs' options at the default tr_fuzz
	reads [][]byte
	body  []byte // reads as the uploaded FASTA
	d     *daemon

	// Each daemon's /cache counters must show exactly the hits and misses
	// its jobs reported; totals feed serve.cache_hit_ratio.
	hits, misses, wantHits, wantMisses int64

	jobs         []jobRun
	lat, submits []time.Duration
	allocs       []float64 // MB allocated per hit job (traced runs)
	direct       []directHit
	chains       []hitChain
}

// directHit is one Cache.Assemble call of a traced run.
type directHit struct {
	out  *pipeline.Output
	fuzz int32
	wall time.Duration
}

// hitChain is one stage-stepped cache hit of a traced run.
type hitChain struct {
	ch     *chain
	fuzz   int32
	traced bool // program tracing and spans on; otherwise the untraced twin
}

// setup generates the reads and starts a daemon with them uploaded,
// sweepSetupReps times, keeping the last daemon (each earlier one is
// stopped and its cache removed); it returns each set-up's duration.
func (sw *sweep) setup(cfg config) ([]time.Duration, error) {
	var setups []time.Duration
	for i := range sweepSetupReps {
		dir := filepath.Join(cfg.out, fmt.Sprintf("cache-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		sw.reads = overlapHeavy.reads(cfg.seed)
		var buf bytes.Buffer
		recs := make([]fasta.Record, len(sw.reads))
		for j, s := range sw.reads {
			recs[j] = fasta.Record{ID: fmt.Sprintf("read%d", j), Seq: s}
		}
		if err := fasta.Write(&buf, recs, 80); err != nil {
			return nil, err
		}
		next, err := startDaemon(dir, buf.Bytes(), len(sw.reads))
		if sw.d != nil {
			sw.d.stop()
			os.RemoveAll(sw.d.dir)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		sw.d, sw.body = next, buf.Bytes()
	}
	sw.res.setInput(sw.reads)
	return setups, nil
}

// restart checks the daemon's counters, stops it and starts a fresh one on
// the same cache directory.
func (sw *sweep) restart() error {
	sw.checkCounters()
	sw.d.stop()
	next, err := startDaemon(sw.d.dir, sw.body, len(sw.reads))
	if err != nil {
		return fmt.Errorf("restarting daemon: %w", err)
	}
	sw.d = next
	return nil
}

// checkCounters compares the daemon's /cache counters with what its jobs
// reported since it started.
func (sw *sweep) checkCounters() {
	var st serve.CacheStats
	err := sw.d.call(http.MethodGet, "/cache", "", nil, http.StatusOK, &st)
	switch {
	case err != nil:
		sw.res.op("GET /cache: " + err.Error())
	case st.Hits != sw.wantHits || st.Misses != sw.wantMisses:
		sw.res.op(fmt.Sprintf("cache counters: %d hits %d misses, want %d hits %d misses", st.Hits, st.Misses, sw.wantHits, sw.wantMisses))
	default:
		sw.res.op("")
	}
	sw.hits, sw.misses = sw.hits+st.Hits, sw.misses+st.Misses
	sw.wantHits, sw.wantMisses = 0, 0
}

// hitJob runs one hit job through the daemon and reports whether it
// completed (its checks come after the window).
func (sw *sweep) hitJob(fuzz int32) bool {
	var m0, m1 runtime.MemStats
	if sw.res.rec != nil {
		runtime.ReadMemStats(&m0)
	}
	jr, err := sw.d.job(sw.res.rec, fuzz)
	if err != nil {
		sw.res.op(fmt.Sprintf("hit job (tr_fuzz %d): %v", fuzz, err))
		return false
	}
	if sw.res.rec != nil {
		runtime.ReadMemStats(&m1)
		sw.allocs = append(sw.allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	sw.wantHits++
	sw.jobs = append(sw.jobs, jr)
	sw.lat = append(sw.lat, jr.latency)
	sw.submits = append(sw.submits, jr.submit)
	return true
}

// tracedHits follows a traced run's hit job with a direct Cache.Assemble hit
// and the stage-stepped hit chain, untraced then traced.
func (sw *sweep) tracedHits(ctx context.Context, fuzz int32) {
	o := sw.opt
	o.TRFuzz = fuzz
	rec := sw.res.rec
	sp := rec.begin(rec.newRun(), 0, "serve", "Cache.Assemble")
	t0 := time.Now()
	out, how, err := sw.d.srv.Cache().Assemble(ctx, o, sw.reads)
	wall := time.Since(t0)
	rec.end(sp)
	if err == nil && how != "hit" {
		err = fmt.Errorf("unexpected cache %s", how)
	}
	if err != nil {
		sw.res.op(fmt.Sprintf("direct cache hit (tr_fuzz %d): %v", fuzz, err))
	} else {
		sw.wantHits++
		sw.direct = append(sw.direct, directHit{out, fuzz, wall})
	}

	entry := filepath.Join(sw.d.dir, serve.Key(o, sw.reads))
	for _, tracedRun := range []bool{false, true} {
		co, crec := o, (*recorder)(nil)
		if tracedRun {
			co, crec = traced(o), rec
		}
		ch, err := runChain(ctx, crec, co, sw.reads, entry)
		if err != nil {
			sw.res.op(fmt.Sprintf("hit chain (tr_fuzz %d, traced %v): %v", fuzz, tracedRun, err))
			continue
		}
		sw.chains = append(sw.chains, hitChain{ch, fuzz, tracedRun})
	}
}

// check builds the reference and checks every operation of the run
// against it (and, at defaultSeed, the reference against the pins).
func (sw *sweep) check(ctx context.Context, cfg config, cold jobRun) {
	res := sw.res
	refs, err := sweepReferences(ctx, sw.opt, sw.reads)
	if err != nil {
		res.op("reference: " + err.Error())
	}
	if err == nil && cfg.seed == defaultSeed {
		res.op(pinProblem("overlap-heavy", refs[sw.opt.TRFuzz]))
		want := pins["overlap-heavy"].Checksum
		for _, f := range sweepFuzz {
			if refs[f].Checksum != want {
				res.op(fmt.Sprintf("reference at tr_fuzz %d differs from pin: %s want %s", f, refs[f].Checksum, want))
			} else {
				res.op("")
			}
		}
	}
	checkJob := func(jr jobRun, want string) {
		ref, ok := refs[jr.fuzz]
		switch {
		case !ok:
			res.op(fmt.Sprintf("job (tr_fuzz %d): no reference", jr.fuzz))
		case jr.cache != want:
			res.op(fmt.Sprintf("job (tr_fuzz %d): cache %q, want %q", jr.fuzz, jr.cache, want))
		case jr.checksum != ref.Checksum:
			res.op(fmt.Sprintf("job (tr_fuzz %d): checksum %.20s… want %.20s…", jr.fuzz, jr.checksum, ref.Checksum))
		default:
			res.op("")
		}
	}
	checkJob(cold, "miss")
	for _, jr := range sw.jobs {
		checkJob(jr, "hit")
	}
	for _, h := range sw.direct {
		res.op(against(fingerprintOf(h.out), refOf(refs, h.fuzz)))
	}
	for _, hc := range sw.chains {
		res.op(against(fingerprintOf(hc.ch.Out), refOf(refs, hc.fuzz)))
	}
}

// sweepReferences assembles the reads through Alignment once, then resumes
// that snapshot once per tr_fuzz value (the sweep values and opt's own).
func sweepReferences(ctx context.Context, opt pipeline.Options, reads [][]byte) (map[int32]fingerprint, error) {
	eng, err := pipeline.Plan(opt)
	if err != nil {
		return nil, err
	}
	snap, err := eng.RunUntil(ctx, reads, pipeline.StageAlignment)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	refs := map[int32]fingerprint{}
	for _, f := range append([]int32{opt.TRFuzz}, sweepFuzz...) {
		o := opt
		o.TRFuzz = f
		e, err := pipeline.Plan(o)
		if err != nil {
			return nil, err
		}
		fin, err := e.ResumeFrom(ctx, snap, pipeline.StageExtractContig)
		if err != nil {
			return nil, fmt.Errorf("tr_fuzz %d: %w", f, err)
		}
		out, err := fin.Output()
		if err != nil {
			return nil, err
		}
		refs[f] = fingerprintOf(out)
	}
	return refs, nil
}

// refOf returns the reference for a tr_fuzz value, nil when there is none.
func refOf(refs map[int32]fingerprint, fuzz int32) *fingerprint {
	if fp, ok := refs[fuzz]; ok {
		return &fp
	}
	return nil
}
