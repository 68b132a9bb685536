// Package wfa implements gap-affine wavefront alignment (Marco-Sola et al.,
// Bioinformatics 2021) as a pluggable backend for the Alignment stage: the
// same seed-anchored bidirectional extension contract as the x-drop DP
// (align.Aligner), but O(n·s) in the alignment penalty s instead of
// O(n·band). On low-divergence pairs (PacBio HiFi-style reads) the penalty —
// and with it the number of wavefront offsets computed — stays tiny, so WFA
// wins exactly where the x-drop still pays its per-antidiagonal band cost.
//
// The wavefront runs in a "doubled score" dual space: with penalties
// mismatch = 2·(match − mismatchScore) and gapExt = match − 2·gapScore
// (DualParams), minimizing WFA penalty q is equivalent to maximizing the
// classic linear-gap score, via 2·score = match·(v+h) − q for a cell that
// has consumed v bases of s and h of t. Extension results therefore convert
// back to x-drop-compatible scores and extents exactly. An adaptive
// wavefront-pruning heuristic plays the role of the x-drop cutoff: any
// diagonal whose dual score lags the running best by more than 2·Drop is
// removed from the wavefront, which bounds both the wavefront width and the
// number of waves.
//
// The kernel is allocation-free in steady state: each wavefront component
// keeps only the last lookback+1 waves, in a ring of reusable slots (see
// Aligner), and match runs advance eight bytes per compare (matchLen).
package wfa

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/align"
)

// Params are the wavefront penalties (all ≥ 0, dual doubled-score units)
// plus the knobs shared with the x-drop backend.
type Params struct {
	Match    int32 // classic per-base match score (> 0); converts offsets back into scores
	Mismatch int32 // substitution penalty (≥ 1)
	GapOpen  int32 // gap-open penalty, charged once per gap run (0 = linear gaps)
	GapExt   int32 // per-base gap-extension penalty (≥ 1)
	// Drop is the adaptive-pruning threshold in classic score units, the
	// x-drop analog: diagonals whose score falls more than Drop below the
	// running best leave the wavefront.
	Drop int32
	// Cells, when non-nil, accumulates the number of wavefront offsets
	// computed — the work counter behind package perfmodel (the aligner
	// wrapper supplies its own; see New).
	Cells *int64
}

// DualParams converts x-drop scoring parameters into the equivalent
// linear-gap wavefront penalties: alignments ranked identically, scores
// convertible exactly. With align.DefaultParams (+1/−2/−2) this yields
// mismatch 6, gapExt 5, gapOpen 0.
func DualParams(a align.Params) Params {
	return Params{
		Match:    a.Match,
		Mismatch: 2 * (a.Match - a.Mismatch),
		GapOpen:  0,
		GapExt:   a.Match - 2*a.Gap,
		Drop:     a.XDrop,
	}
}

// DefaultParams mirrors align.DefaultParams(drop) in wavefront space.
func DefaultParams(drop int32) Params {
	return DualParams(align.DefaultParams(drop))
}

const none = int32(-1 << 30)

// wave holds the furthest-reaching offsets of one penalty level: off[k-lo]
// is h, the number of t bases consumed on diagonal k = h − v (none = no
// live cell). Empty waves have an empty off.
type wave struct {
	lo  int32
	off []int32
}

func (w wave) empty() bool { return len(w.off) == 0 }

// hi is the last diagonal of a non-empty wave.
func (w wave) hi() int32 { return w.lo + int32(len(w.off)) - 1 }

// get returns the offset of diagonal k, or none.
func (w wave) get(k int32) int32 {
	if idx := k - w.lo; idx >= 0 && idx < int32(len(w.off)) {
		return w.off[idx]
	}
	return none
}

// slot is one ring position of a wavefront component: the wave stored there
// and the backing array its offsets live in, kept across waves and calls.
type slot struct {
	wave
	buf []int32
}

// reset makes the slot hold a wave of width diagonals starting at lo and
// returns its offsets for the caller to fill. The backing array grows only
// when a wider wave than any before arrives, and then at least doubles.
func (sl *slot) reset(lo, width int32) []int32 {
	if int32(cap(sl.buf)) < width {
		sl.buf = make([]int32, max(width, 2*int32(cap(sl.buf))))
	}
	sl.lo, sl.off = lo, sl.buf[:width]
	return sl.off
}

// Aligner is the wavefront backend; it satisfies align.Aligner. Each
// wavefront component — match/mismatch (m), insertion-in-t (i) and
// deletion-from-t (d) — is a ring of lookback+1 slots, where lookback =
// max(Mismatch, GapOpen+GapExt) is the furthest back any recurrence reads:
// wave q lives in slot q mod (lookback+1), overwriting wave q−lookback−1,
// which nothing reads any more. Slots keep their backing arrays, so after
// the widest wave has been seen an extension allocates nothing. Instances
// are therefore not safe for concurrent use — the overlap stage builds one
// per simulated rank.
type Aligner struct {
	p       Params
	cells   int64
	m, i, d []slot
	// scratch backs the wrapper's reverse-complement/reversed-prefix copies;
	// ext is the pre-bound extension func so SeedExtend closes over nothing.
	scratch align.Scratch
	ext     align.ExtendFunc
}

// New builds a wavefront backend. Any Cells pointer in p is replaced by the
// aligner's own cumulative work counter (see Work).
func New(p Params) *Aligner {
	if p.Match <= 0 || p.Mismatch < 1 || p.GapExt < 1 || p.GapOpen < 0 {
		panic("wfa: need Match > 0, Mismatch ≥ 1, GapExt ≥ 1, GapOpen ≥ 0")
	}
	a := &Aligner{p: p}
	a.p.Cells = &a.cells
	a.ext = a.Extend
	r := max(p.Mismatch, p.GapOpen+p.GapExt) + 1
	a.m, a.i, a.d = make([]slot, r), make([]slot, r), make([]slot, r)
	return a
}

// Name implements align.Aligner.
func (a *Aligner) Name() string { return "wfa" }

// Work implements align.Aligner: wavefront offsets computed plus match-run
// cells visited, the WFA equivalent of the x-drop's DP-cell counter.
func (a *Aligner) Work() int64 { return a.cells }

// SeedExtend implements align.Aligner via the shared bidirectional wrapper,
// with the instance's scratch buffers.
func (a *Aligner) SeedExtend(u, v []byte, k int32, seed align.Seed) align.Result {
	return align.SeedExtendWithScratch(&a.scratch, u, v, k, seed, a.p.Match, a.ext)
}

// extension is the state of one Extend call: the two sequences, the best
// cell so far and the work done. Its methods are the per-wave steps.
type extension struct {
	s, t         []byte
	match, drop2 int32
	// best2 is the doubled classic score of the best cell seen, at v bases
	// of s and h of t.
	best2, bv, bh int32
	cells         int64
}

// better reports whether the cell (v, h) with doubled score s2 beats the
// best so far; ties break like the x-drop: furthest v+h, then furthest v.
func (e *extension) better(s2, v, h int32) bool {
	if s2 != e.best2 {
		return s2 > e.best2
	}
	if v+h != e.bv+e.bh {
		return v+h > e.bv+e.bh
	}
	return v > e.bv
}

// scan match-extends the diagonals of an M wave (isM) and updates the best
// cell, then applies the adaptive prune and trims w to its live diagonals.
// It reports whether any diagonal is still live.
func (e *extension) scan(w *wave, q int32, isM bool) bool {
	liveLo, liveHi := 0, -1
	for idx, h := range w.off {
		if h <= none/2 {
			continue
		}
		k := w.lo + int32(idx)
		if isM {
			// Furthest-reaching match run; every cell it crosses counts.
			n := matchLen(e.s[h-k:], e.t[h:])
			h += int32(n)
			e.cells += int64(n)
			w.off[idx] = h
			if s2 := e.match*(2*h-k) - q; e.better(s2, h-k, h) {
				e.best2, e.bv, e.bh = s2, h-k, h
			}
		}
		// Adaptive prune: the x-drop rule in dual space.
		if e.match*(2*h-k)-q < e.best2-e.drop2 {
			w.off[idx] = none
			continue
		}
		if liveHi < 0 {
			liveLo = idx
		}
		liveHi = idx
	}
	if liveHi < 0 {
		w.off = w.off[:0]
		return false
	}
	w.lo, w.off = w.lo+int32(liveLo), w.off[liveLo:liveHi+1]
	return true
}

// matchLen returns the length of the common prefix of a and b. It compares
// eight bytes per step: in the XOR of two little-endian words the lowest set
// bit falls in the first differing byte.
func matchLen(a, b []byte) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// back returns the wave d penalties behind wave q, whose slot is cur, or an
// empty wave when that would be before penalty 0. d must not exceed the
// lookback.
func back(c []slot, q, cur, d int32) wave {
	if q < d {
		return wave{}
	}
	if cur -= d; cur < 0 {
		cur += int32(len(c))
	}
	return c[cur].wave
}

// Extend is the extension primitive (align.ExtendFunc): the best local
// extension of s versus t from (0,0) forward, returning the classic score
// and half-open extents. Semantics match the x-drop extend; only the search
// order differs (per-penalty wavefronts instead of per-antidiagonal bands).
func (a *Aligner) Extend(s, t []byte) (score, si, ti int32) {
	ns, nt := int32(len(s)), int32(len(t))
	if ns == 0 || nt == 0 {
		return 0, 0, 0
	}
	p := a.p
	x, oe, ge := p.Mismatch, p.GapOpen+p.GapExt, p.GapExt
	r := int32(len(a.m))
	lookback := r - 1
	e := extension{s: s, t: t, match: p.Match, drop2: 2 * p.Drop}

	// Penalty 0: the single cell (0,0) in M; I and D start empty. Every
	// later wave is written before it is read, so no other slot needs
	// clearing from the previous call.
	a.m[0].reset(0, 1)[0] = 0
	a.i[0].wave, a.d[0].wave = wave{}, wave{}
	e.cells++
	e.scan(&a.m[0].wave, 0, true)
	lastLive, cur := int32(0), int32(0)

	// Safety cap: beyond it every cell's dual score is under best2 − drop2
	// (best2 ≥ 0), so the prune has necessarily emptied all wavefronts.
	qcap := p.Match*(ns+nt) + e.drop2 + lookback + 1
	for q := int32(1); q-lastLive <= lookback && q < qcap; q++ {
		// Wave q goes to slot cur = q mod r.
		if cur++; cur == r {
			cur = 0
		}
		mx, mo := back(a.m, q, cur, x), back(a.m, q, cur, oe)
		ie, de := back(a.i, q, cur, ge), back(a.d, q, cur, ge)
		wm, wi, wd := &a.m[cur], &a.i[cur], &a.d[cur]
		// Diagonal span of wave q: mismatches stay on their diagonal, gap
		// opens from M and extensions from I (D) move it by +1 (−1).
		lo, hi := int32(1)<<30, int32(-1)<<30
		if !mx.empty() {
			lo, hi = min(lo, mx.lo), max(hi, mx.hi())
		}
		if !mo.empty() {
			lo, hi = min(lo, mo.lo-1), max(hi, mo.hi()+1)
		}
		if !ie.empty() {
			lo, hi = min(lo, ie.lo+1), max(hi, ie.hi()+1)
		}
		if !de.empty() {
			lo, hi = min(lo, de.lo-1), max(hi, de.hi()-1)
		}
		if lo > hi {
			wm.wave, wi.wave, wd.wave = wave{}, wave{}, wave{}
			continue
		}
		width := hi - lo + 1
		mOff, iOff, dOff := wm.reset(lo, width), wi.reset(lo, width), wd.reset(lo, width)
		e.cells += 3 * int64(width)
		for idx := range mOff {
			k := lo + int32(idx)
			// I: gap in s (consume t): offset +1 from diagonal k−1.
			ins := max(mo.get(k-1), ie.get(k-1))
			if ins > none/2 {
				ins++
			}
			if ins > nt || ins-k > ns || ins-k < 0 {
				ins = none
			}
			// D: gap in t (consume s): offset unchanged from diagonal k+1.
			del := max(mo.get(k+1), de.get(k+1))
			if del > nt || del-k > ns || del < 0 {
				del = none
			}
			// M: mismatch (consume both) from the same diagonal, or close a
			// gap from the I/D cells just computed.
			mis := mx.get(k)
			if mis > none/2 {
				mis++
			}
			if mis > nt || mis-k > ns || mis-k < 1 {
				mis = none
			}
			iOff[idx], dOff[idx] = ins, del
			mOff[idx] = max(mis, ins, del)
		}
		liveQ := e.scan(&wm.wave, q, true)
		if e.scan(&wi.wave, q, false) {
			liveQ = true
		}
		if e.scan(&wd.wave, q, false) {
			liveQ = true
		}
		if liveQ {
			lastLive = q
		}
	}
	if p.Cells != nil {
		*p.Cells += e.cells
	}
	return e.best2 / 2, e.bv, e.bh
}
