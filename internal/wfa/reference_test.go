package wfa

// The reference wavefront kernel: the straightforward implementation the
// ring-slot, word-compare Extend must reproduce bit for bit — score,
// extents and work counter — the way spmat's MultiplyMap serves its fused
// SpGEMM.

// refAligner holds the reference kernel's parameters and its per-penalty
// wave history.
type refAligner struct {
	p       Params
	m, i, d []wave
}

// newRef builds a reference kernel whose work counter is cells.
func newRef(p Params, cells *int64) *refAligner {
	p.Cells = cells
	return &refAligner{p: p}
}

// Extend is the original wavefront extension: every wave of the run kept in
// a growing slice, three fresh offset slices per penalty step, and match
// runs compared one byte at a time.
func (a *refAligner) Extend(s, t []byte) (score, si, ti int32) {
	ns, nt := int32(len(s)), int32(len(t))
	if ns == 0 || nt == 0 {
		return 0, 0, 0
	}
	p := a.p
	x, oe, e := p.Mismatch, p.GapOpen+p.GapExt, p.GapExt
	lookback := x
	if oe > lookback {
		lookback = oe
	}
	drop2 := 2 * p.Drop

	a.m, a.i, a.d = a.m[:0], a.i[:0], a.d[:0]
	var cells int64
	defer func() {
		if p.Cells != nil {
			*p.Cells += cells
		}
	}()

	// best2 is the doubled classic score of the best cell seen; ties break
	// like the x-drop: furthest v+h, then furthest v.
	best2, bv, bh := int32(0), int32(0), int32(0)
	better := func(s2, v, h int32) bool {
		if s2 != best2 {
			return s2 > best2
		}
		if v+h != bv+bh {
			return v+h > bv+bh
		}
		return v > bv
	}
	// scan match-extends one wave along its diagonals, updates the best
	// cell, applies the adaptive prune, and reports whether the wave is
	// still live.
	scan := func(w *wave, q int32, isM bool) bool {
		live := false
		liveLo, liveHi := int32(len(w.off)), int32(-1)
		for idx := range w.off {
			h := w.off[idx]
			if h <= none/2 {
				continue
			}
			k := w.lo + int32(idx)
			if isM {
				// Furthest-reaching match run.
				for h < nt && h-k < ns && s[h-k] == t[h] {
					h++
					cells++
				}
				w.off[idx] = h
				if s2 := p.Match*(2*h-k) - q; better(s2, h-k, h) {
					best2, bv, bh = s2, h-k, h
				}
			}
			// Adaptive prune: the x-drop rule in dual space.
			if p.Match*(2*h-k)-q < best2-drop2 {
				w.off[idx] = none
				continue
			}
			live = true
			if int32(idx) < liveLo {
				liveLo = int32(idx)
			}
			if int32(idx) > liveHi {
				liveHi = int32(idx)
			}
		}
		if !live {
			*w = wave{}
			return false
		}
		w.lo, w.off = w.lo+liveLo, w.off[liveLo:liveHi+1]
		return true
	}
	at := func(c []wave, q int32) wave {
		if q < 0 || q >= int32(len(c)) {
			return wave{}
		}
		return c[q]
	}

	// Penalty 0: the single cell (0,0) in M; I and D start empty.
	a.m = append(a.m, wave{lo: 0, off: []int32{0}})
	a.i = append(a.i, wave{})
	a.d = append(a.d, wave{})
	cells++
	scan(&a.m[0], 0, true)
	lastLive := int32(0)

	// Safety cap: beyond it every cell's dual score is under best2 − drop2
	// (best2 ≥ 0), so the prune has necessarily emptied all wavefronts.
	qcap := p.Match*(ns+nt) + drop2 + lookback + 1
	for q := int32(1); q-lastLive <= lookback && q < qcap; q++ {
		mx, mo := at(a.m, q-x), at(a.m, q-oe)
		ie, de := at(a.i, q-e), at(a.d, q-e)
		lo, hi := int32(1)<<30, int32(-1)<<30
		span := func(slo, shi, dk int32) {
			if slo+dk < lo {
				lo = slo + dk
			}
			if shi+dk > hi {
				hi = shi + dk
			}
		}
		if !mx.empty() {
			span(mx.lo, mx.lo+int32(len(mx.off))-1, 0)
		}
		if !mo.empty() {
			span(mo.lo, mo.lo+int32(len(mo.off))-1, -1)
			span(mo.lo, mo.lo+int32(len(mo.off))-1, 1)
		}
		if !ie.empty() {
			span(ie.lo, ie.lo+int32(len(ie.off))-1, 1)
		}
		if !de.empty() {
			span(de.lo, de.lo+int32(len(de.off))-1, -1)
		}
		if lo > hi {
			a.m, a.i, a.d = append(a.m, wave{}), append(a.i, wave{}), append(a.d, wave{})
			continue
		}
		width := hi - lo + 1
		iOff := make([]int32, width)
		dOff := make([]int32, width)
		mOff := make([]int32, width)
		cells += 3 * int64(width)
		for k := lo; k <= hi; k++ {
			// I: gap in s (consume t): offset +1 from diagonal k−1.
			ins := maxOff(mo.get(k-1), ie.get(k-1))
			if ins > none/2 {
				ins++
			}
			if ins > nt || ins-k > ns || ins-k < 0 {
				ins = none
			}
			// D: gap in t (consume s): offset unchanged from diagonal k+1.
			del := maxOff(mo.get(k+1), de.get(k+1))
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
			iOff[k-lo], dOff[k-lo] = ins, del
			mOff[k-lo] = maxOff(mis, maxOff(ins, del))
		}
		wi := wave{lo: lo, off: iOff}
		wd := wave{lo: lo, off: dOff}
		wm := wave{lo: lo, off: mOff}
		liveQ := scan(&wm, q, true)
		if scan(&wi, q, false) {
			liveQ = true
		}
		if scan(&wd, q, false) {
			liveQ = true
		}
		a.m, a.i, a.d = append(a.m, wm), append(a.i, wi), append(a.d, wd)
		if liveQ {
			lastLive = q
		}
	}
	return best2 / 2, bv, bh
}

func maxOff(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
