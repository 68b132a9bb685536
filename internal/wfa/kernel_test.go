package wfa

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/readsim"
)

// kernelParams are the penalty sets the kernel is checked under: the
// linear-gap duals of the x-drop defaults at the drops the pipeline and the
// benches use, plus an affine set whose lookback comes from GapOpen+GapExt
// rather than Mismatch.
func kernelParams() []Params {
	return []Params{
		DefaultParams(4),
		DefaultParams(15),
		DefaultParams(40),
		{Match: 1, Mismatch: 4, GapOpen: 6, GapExt: 2, Drop: 20},
	}
}

// checkAgainstRef runs one pair through both kernels and fails on any
// difference in score, extents or work done by the call.
func checkAgainstRef(t *testing.T, label string, a *Aligner, ref *refAligner, refCells *int64, s, u []byte) {
	t.Helper()
	w0, r0 := a.Work(), *refCells
	gs, gi, gj := a.Extend(s, u)
	ws, wi, wj := ref.Extend(s, u)
	if gs != ws || gi != wi || gj != wj {
		t.Fatalf("%s (|s|=%d |t|=%d): Extend = (%d, %d, %d), reference (%d, %d, %d)",
			label, len(s), len(u), gs, gi, gj, ws, wi, wj)
	}
	if gw, rw := a.Work()-w0, *refCells-r0; gw != rw {
		t.Fatalf("%s (|s|=%d |t|=%d): work %d, reference %d", label, len(s), len(u), gw, rw)
	}
}

// TestExtendMatchesReference is the differential test of the kernel:
// simulated read/reference pairs over the error regimes from HiFi to 30%,
// cut to unequal lengths, lengths under 8 and lengths off the 8-byte grid,
// with N bytes planted and empty sides. One Aligner serves every pair of a
// parameter set, so ring slots are reused across calls as in the pipeline.
func TestExtendMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for pi, p := range kernelParams() {
		a := New(p)
		var refCells int64
		ref := newRef(p, &refCells)
		for _, er := range []float64{0, 0.005, 0.05, 0.15, 0.30} {
			g := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: rng.Int63()})
			reads := readsim.Simulate(g, readsim.ReadConfig{
				Depth: 2, MeanLen: 64 + rng.Intn(900), ErrorRate: er, Seed: rng.Int63(), ForwardOnly: true,
			})
			for ri, r := range reads {
				s, u := g[r.Pos:], r.Seq
				label := fmt.Sprintf("params %d err %g read %d", pi, er, ri)
				checkAgainstRef(t, label, a, ref, &refCells, s, u)
				// Cut both sides: short (under 8), off the 8-byte grid, unequal.
				ls, lu := 1+rng.Intn(min(len(s), 40)), 1+rng.Intn(min(len(u), 40))
				checkAgainstRef(t, label+" short", a, ref, &refCells, s[:ls], u[:lu])
				ls, lu = rng.Intn(len(s)+1), rng.Intn(len(u)+1)
				checkAgainstRef(t, label+" cut", a, ref, &refCells, s[:ls], u[:lu])
				// Plant an N in a copy of one side.
				n := append([]byte(nil), u...)
				n[rng.Intn(len(n))] = 'N'
				checkAgainstRef(t, label+" N", a, ref, &refCells, s, n)
				checkAgainstRef(t, label+" empty", a, ref, &refCells, s[:0], u)
				checkAgainstRef(t, label+" empty", a, ref, &refCells, s, u[:0])
			}
		}
		// Unrelated sequences: the prune, not the ends, stops the extension.
		h := readsim.Genome(readsim.GenomeConfig{Length: 2000, Seed: rng.Int63()})
		g := readsim.Genome(readsim.GenomeConfig{Length: 2000, Seed: rng.Int63()})
		checkAgainstRef(t, fmt.Sprintf("params %d unrelated", pi), a, ref, &refCells, g, h)
		// Identical sequences of every length up to 40: the word and tail
		// paths of the match run, alone and together.
		for n := 1; n <= 40; n++ {
			checkAgainstRef(t, fmt.Sprintf("params %d identical", pi), a, ref, &refCells, g[:n], g[:n])
		}
	}
}

// TestExtendAllocatesNothing pins the steady state of the kernel: once a
// first call has sized the ring slots, an extension allocates nothing.
func TestExtendAllocatesNothing(t *testing.T) {
	g := readsim.Genome(readsim.GenomeConfig{Length: 3500, Seed: 21})
	reads := readsim.Simulate(g, readsim.ReadConfig{
		Depth: 0.999, MeanLen: 3000, ErrorRate: 0.05, Seed: 22, ForwardOnly: true,
	})
	if len(reads) == 0 {
		t.Fatal("no reads")
	}
	s, u := g[reads[0].Pos:], reads[0].Seq
	a := New(DefaultParams(40))
	a.Extend(s, u)
	if n := testing.AllocsPerRun(20, func() { a.Extend(s, u) }); n != 0 {
		t.Fatalf("Extend allocates %v times per call after warm-up, want 0", n)
	}
}

// byteMatchLen is the byte-at-a-time common prefix matchLen must equal.
func byteMatchLen(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func FuzzMatchLen(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte("ACGTACGT"), []byte("ACGTACGT"))
	f.Add([]byte("ACGTACGTA"), []byte("ACGTACGTC"))
	f.Add([]byte("ACGTACGTACGTACG"), []byte("ACGTACGTACGTACGTT"))
	f.Add([]byte("ACGTNCGTACGT"), []byte("ACGTACGTACGT"))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAC"), []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAG"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if got, want := matchLen(a, b), byteMatchLen(a, b); got != want {
			t.Fatalf("matchLen(%q, %q) = %d, want %d", a, b, got, want)
		}
	})
}

// TestMatchLenEveryPosition covers every mismatch position in and across
// the 8-byte words, beyond what the fuzz seeds reach.
func TestMatchLenEveryPosition(t *testing.T) {
	base := bytes.Repeat([]byte("ACGT"), 10)
	for n := 0; n <= len(base); n++ {
		for at := 0; at <= n; at++ {
			b := append([]byte(nil), base[:n]...)
			if at < n {
				b[at] ^= 0x20
			}
			if got, want := matchLen(base[:n], b), byteMatchLen(base[:n], b); got != want {
				t.Fatalf("n=%d mismatch at %d: matchLen %d, want %d", n, at, got, want)
			}
		}
	}
}
