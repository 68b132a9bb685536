// Package align implements the x-drop seed-and-extend pairwise aligner used
// for the Alignment stage of Algorithm 1 (the SeqAn/LOGAN substitute): from
// a shared k-mer seed, a banded antidiagonal dynamic program extends the
// alignment left and right, pruning cells whose score falls more than x
// below the running best (Zhang et al.'s x-drop rule). The x-drop can stop
// an extension early, which is exactly why the string graph stores post(e)
// (§4.4).
package align

import (
	"repro/internal/bidir"
	"repro/internal/dna"
)

// Params are the scoring parameters; the paper runs ELBA with x = 15 for the
// low-error datasets and x = 7 for H. sapiens.
type Params struct {
	Match    int32 // score per matching base (> 0)
	Mismatch int32 // score per mismatching base (< 0)
	Gap      int32 // score per inserted/deleted base (< 0)
	XDrop    int32 // give up when score < best - XDrop
	// Cells, when non-nil, accumulates the number of DP cells visited — the
	// work counter behind the performance model (package perfmodel).
	Cells *int64
}

// DefaultParams uses +1 match, -2 mismatch, -2 gap. (BELLA scores +1/-1/-1,
// but with linear gaps that scheme has a positive expected score drift on
// random DNA — the Chvátal–Sankoff constant for 4 letters is ≈0.65 — so an
// x-drop would never fire; -2 penalties restore the negative drift that
// makes the x-drop terminate while still crossing isolated errors.)
func DefaultParams(xdrop int32) Params {
	return Params{Match: 1, Mismatch: -2, Gap: -2, XDrop: xdrop}
}

const negInf = int32(-1 << 30)

// bands is the antidiagonal storage of the x-drop DP: antidiagonal d lives
// in buffer d mod 3, since a cell reads only the two antidiagonals before
// its own. Buffers grow (at least doubling) to the widest band seen and are
// reused after that.
type bands [3][]int32

// band returns buffer d mod 3 resized to width cells.
func (b *bands) band(d, width int32) []int32 {
	buf := &b[d%3]
	if int32(cap(*buf)) < width {
		*buf = make([]int32, max(width, 2*int32(cap(*buf))))
	}
	return (*buf)[:width]
}

// extend runs a gapped x-drop extension of s against t starting at (0,0) and
// moving forward, with band storage of its own; it is safe for concurrent
// use when p.Cells is nil.
func extend(s, t []byte, p Params) (score, si, ti int32) {
	var b bands
	return b.extend(s, t, p)
}

// extend runs the x-drop extension in the receiver's band buffers. Cell
// (i, j) scores the best alignment of s[0:i) with t[0:j); it returns the
// best score and its half-open extents (si, ti).
func (b *bands) extend(s, t []byte, p Params) (score, si, ti int32) {
	ns, nt := int32(len(s)), int32(len(t))
	if ns == 0 || nt == 0 {
		return 0, 0, 0
	}
	// Antidiagonal DP: cell (i, j) lives on antidiagonal d = i + j; arrays
	// are indexed by i-lo for the active band [lo, hi] of each antidiagonal.
	// Only the band of live (un-pruned) cells is visited: the x-drop keeps
	// it O(XDrop) wide, so a perfect overlap costs O(len · band), not
	// O(len²).
	best, bi, bj := int32(0), int32(0), int32(0)
	var cells int64
	defer func() {
		if p.Cells != nil {
			*p.Cells += cells
		}
	}()
	prev1 := b.band(0, 1) // antidiagonal 0: the single cell (0,0)
	prev1[0] = 0
	lo1, hi1 := int32(0), int32(0)
	prev2 := []int32(nil)
	lo2, hi2 := int32(0), int32(-1)
	for d := int32(1); d <= ns+nt; d++ {
		// Geometric bounds of the antidiagonal...
		lo := d - nt
		if lo < 0 {
			lo = 0
		}
		hi := d
		if hi > ns {
			hi = ns
		}
		// ...intersected with cells reachable from the live bands of the
		// two previous antidiagonals (moves: i-1 from d-2 and d-1, i from
		// d-1).
		reachLo := lo1
		if lo2 < reachLo {
			reachLo = lo2
		}
		reachHi := hi1 + 1
		if hi2+1 > reachHi {
			reachHi = hi2 + 1
		}
		if reachLo > lo {
			lo = reachLo
		}
		if reachHi < hi {
			hi = reachHi
		}
		if lo > hi {
			break
		}
		cur := b.band(d, hi-lo+1)
		cells += int64(hi - lo + 1)
		alive := false
		liveLo, liveHi := hi+1, lo-1
		for i := lo; i <= hi; i++ {
			j := d - i
			v := negInf
			// Diagonal move (match/mismatch) from (i-1, j-1) on d-2.
			if i > 0 && j > 0 && prev2 != nil {
				pi := i - 1 - lo2
				if pi >= 0 && pi < int32(len(prev2)) && prev2[pi] > negInf/2 {
					sc := p.Mismatch
					if s[i-1] == t[j-1] {
						sc = p.Match
					}
					if w := prev2[pi] + sc; w > v {
						v = w
					}
				}
			}
			// Gap moves from d-1: (i-1, j) and (i, j-1).
			if i > 0 {
				pi := i - 1 - lo1
				if pi >= 0 && pi < int32(len(prev1)) && prev1[pi] > negInf/2 {
					if w := prev1[pi] + p.Gap; w > v {
						v = w
					}
				}
			}
			if j > 0 {
				pi := i - lo1
				if pi >= 0 && pi < int32(len(prev1)) && prev1[pi] > negInf/2 {
					if w := prev1[pi] + p.Gap; w > v {
						v = w
					}
				}
			}
			// X-drop prune.
			if v < best-p.XDrop {
				v = negInf
			} else if v > negInf/2 {
				alive = true
				if i < liveLo {
					liveLo = i
				}
				if i > liveHi {
					liveHi = i
				}
				if v > best || (v == best && i+j > bi+bj) || (v == best && i+j == bi+bj && i > bi) {
					best, bi, bj = v, i, j
				}
			}
			cur[i-lo] = v
		}
		if !alive {
			break
		}
		// Shrink the stored band to the live cells.
		prev2, lo2, hi2 = prev1, lo1, hi1
		prev1, lo1, hi1 = cur[liveLo-lo:liveHi-lo+1], liveLo, liveHi
	}
	return best, bi, bj
}

// Scratch holds the reusable byte buffers of the seed-extension wrapper: the
// reverse complement of v for RC seeds and the two reversed prefixes of the
// left extension. Aligner backends embed one per instance (instances are
// single-goroutine by contract), so the per-alignment RevComp/reverse copies
// of SeedExtendWith stop allocating on the Alignment hot path. The audited
// alternative — dna.RevCompInPlace on v itself — is off the table because u
// and v alias the rank's shared row/column sequence stores.
type Scratch struct {
	rc, ru, rv []byte
}

// reverseInto writes the reverse of src into buf and returns the filled
// slice.
func reverseInto(buf, src []byte) []byte {
	if cap(buf) < len(src) {
		buf = make([]byte, len(src))
	}
	buf = buf[:len(src)]
	for i, b := range src {
		buf[len(src)-1-i] = b
	}
	return buf
}

// Seed is a shared k-mer occurrence: the window starts at PU on u (forward
// coords) and PV on v (forward coords); RC says the canonical k-mer appears
// with opposite orientations, i.e. v overlaps u's reverse complement.
type Seed struct {
	PU, PV int32
	RC     bool
}

// ExtendFunc is the extension primitive an alignment backend supplies: the
// best-scoring local extension of s versus t starting at (0,0) and moving
// forward, returning the classic (match/mismatch/gap) score and the half-open
// extents reached on each sequence. Both the x-drop DP and the wavefront
// aligner (package wfa) implement this contract.
type ExtendFunc func(s, t []byte) (score, si, ti int32)

// SeedExtend aligns u and v around the seed and returns the alignment in
// forward coordinates of both reads (a bidir.Aln with U/V ids left zero for
// the caller to fill).
func SeedExtend(u, v []byte, k int32, seed Seed, p Params) bidir.Aln {
	return SeedExtendWith(u, v, k, seed, p.Match,
		func(s, t []byte) (int32, int32, int32) { return extend(s, t, p) })
}

// SeedExtendWith runs the seed-anchored bidirectional extension with an
// arbitrary extension primitive: right extension from the seed end, left
// extension on the reversed prefixes, reverse-complement handling for RC
// seeds. Backends share this wrapper so their coordinate semantics (and the
// agreement tests built on them) are identical by construction. It allocates
// fresh working copies per call; backends hold a Scratch and call
// SeedExtendWithScratch instead.
func SeedExtendWith(u, v []byte, k int32, seed Seed, matchScore int32, ext ExtendFunc) bidir.Aln {
	return SeedExtendWithScratch(new(Scratch), u, v, k, seed, matchScore, ext)
}

// SeedExtendWithScratch is SeedExtendWith with caller-owned buffers: the
// reverse-complement and reversed-prefix copies land in sc and are reused
// across calls.
func SeedExtendWithScratch(sc *Scratch, u, v []byte, k int32, seed Seed, matchScore int32, ext ExtendFunc) bidir.Aln {
	work := v
	pv := seed.PV
	if seed.RC {
		// Align u against revcomp(v); the seed window [PV, PV+k) on v maps
		// to [LV-PV-k, LV-PV) on revcomp(v).
		sc.rc = dna.RevCompInto(sc.rc, v)
		work = sc.rc
		pv = int32(len(v)) - seed.PV - k
	}
	// Right extension from the seed end.
	rs, rExtU, rExtV := ext(u[seed.PU+k:], work[pv+k:])
	// Left extension: reverse the prefixes.
	sc.ru = reverseInto(sc.ru, u[:seed.PU])
	sc.rv = reverseInto(sc.rv, work[:pv])
	ls, lExtU, lExtV := ext(sc.ru, sc.rv)
	score := rs + ls + k*matchScore
	bu, eu := seed.PU-lExtU, seed.PU+k+rExtU
	bw, ew := pv-lExtV, pv+k+rExtV
	a := bidir.Aln{
		BU: bu, EU: eu,
		RC:    seed.RC,
		Score: score,
		LU:    int32(len(u)), LV: int32(len(v)),
	}
	if seed.RC {
		// Map [bw, ew) on revcomp(v) back to forward coordinates.
		a.BV, a.EV = int32(len(v))-ew, int32(len(v))-bw
	} else {
		a.BV, a.EV = bw, ew
	}
	return a
}

// Best runs SeedExtend for every seed with the given params — BestOf over
// an aligner view that honors p verbatim (including any Cells pointer).
func Best(u, v []byte, k int32, seeds []Seed, p Params) bidir.Aln {
	return BestOf(paramsAligner{p}, u, v, k, seeds)
}

// paramsAligner adapts raw Params to the Aligner interface without taking
// over the work counter the way NewXDrop does; safe to use from multiple
// goroutines as long as p.Cells is nil.
type paramsAligner struct{ p Params }

func (a paramsAligner) Name() string { return "xdrop" }
func (a paramsAligner) Work() int64  { return 0 }
func (a paramsAligner) SeedExtend(u, v []byte, k int32, seed Seed) Result {
	return SeedExtend(u, v, k, seed, a.p)
}
