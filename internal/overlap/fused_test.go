package overlap

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/align"
	"repro/internal/grid"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// unfusedSeeds is seedSemiring without its fused step, so the kernels fall
// back to the Mul/Add pair — the reference the fused step must reproduce.
var unfusedSeeds = spmat.Semiring[kmer.Occur, kmer.Occur, Seeds]{Mul: seedSemiring.Mul, Add: seedSemiring.Add}

// randOccurTriples draws a reads × k-mers occurrence matrix with the shapes
// that exercise every seed-step branch: positions from a small range (so
// distinct k-mers repeat a position and seeds collide), mixed strands, pairs
// of reads sharing exactly one k-mer, and one pair sharing hundreds.
func randOccurTriples(rng *rand.Rand, nr, nc int32) []spmat.Triple[kmer.Occur] {
	occ := func() kmer.Occur {
		return kmer.Occur{Pos: int32(rng.Intn(40)), RC: rng.Intn(2) == 1}
	}
	cell := map[[2]int32]kmer.Occur{}
	// Sparse background: a few k-mers per read.
	for r := int32(0); r < nr; r++ {
		for n := rng.Intn(6); n > 0; n-- {
			cell[[2]int32{r, rng.Int31n(nc)}] = occ()
		}
	}
	// A heavy pair: reads 0 and 1 share most k-mers.
	for k := int32(0); k < nc; k++ {
		if rng.Intn(4) != 0 {
			cell[[2]int32{0, k}] = occ()
			cell[[2]int32{1, k}] = occ()
		}
	}
	// Single-k-mer pairs on private columns.
	for k := nc - 8; k < nc; k++ {
		cell[[2]int32{2 + rng.Int31n(nr-2), k}] = occ()
		cell[[2]int32{2 + rng.Int31n(nr-2), k}] = occ()
	}
	ts := make([]spmat.Triple[kmer.Occur], 0, len(cell))
	for rc, v := range cell {
		ts = append(ts, spmat.Triple[kmer.Occur]{Row: rc[0], Col: rc[1], Val: v})
	}
	return ts
}

// aatProducts is the exact semiring product count of A·Aᵀ: Σ_k nnz(A(:,k))².
func aatProducts(ts []spmat.Triple[kmer.Occur]) int64 {
	col := map[int32]int64{}
	for _, t := range ts {
		col[t.Col]++
	}
	var n int64
	for _, c := range col {
		n += c * c
	}
	return n
}

// TestFusedSeedSpGEMMMatchesUnfusedReference pins the fused SUMMA product
// C = A·Aᵀ at P = 1, 4 and 9 (blocking and nonblocking) to the unfused
// map-accumulator reference, triple for triple, and its product counter to
// the exact count.
func TestFusedSeedSpGEMMMatchesUnfusedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		nr := int32(12 + rng.Intn(30))
		nc := int32(300 + rng.Intn(200))
		all := randOccurTriples(rng, nr, nc)
		a := spmat.NewCOO(nr, nc, append([]spmat.Triple[kmer.Occur](nil), all...), nil)
		ref := spmat.MultiplyMap(a.ToCSC(), spmat.TransposeLocal(a, nil).ToCSC(), unfusedSeeds)
		if got := spmat.Multiply(a.ToCSC(), spmat.TransposeLocal(a, nil).ToCSC(), seedSemiring); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: fused local Multiply diverged from the unfused reference", trial)
		}
		wantProducts := aatProducts(all)
		for _, p := range []int{1, 4, 9} {
			for _, async := range []bool{false, true} {
				var got []spmat.Triple[Seeds]
				var products atomic.Int64
				err := mpi.Run(p, func(c *mpi.Comm) {
					g := grid.New(c)
					da := spmat.FromGlobalTriples(g, nr, nc, all, nil)
					dat := spmat.Transpose(da, nil)
					var n int64
					var dc *spmat.Dist[Seeds]
					if async {
						dc = spmat.SpGEMMAsync(da, dat, seedSemiring, &n)
					} else {
						dc = spmat.SpGEMMCounted(da, dat, seedSemiring, &n)
					}
					products.Add(n)
					if ts := dc.GatherTriples(0); c.Rank() == 0 {
						got = ts
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref.Ts) {
					t.Fatalf("trial %d P=%d async=%v: fused SpGEMM diverged from the unfused reference", trial, p, async)
				}
				if products.Load() != wantProducts {
					t.Fatalf("trial %d P=%d async=%v: %d products, want %d", trial, p, async, products.Load(), wantProducts)
				}
			}
		}
	}
}

// TestSeedMulAddMatchesMulThenAdd: the fused step equals Mul (fresh slot,
// whatever it held before) or Add(*dst, Mul) (live slot) bit for bit,
// including the N == 2 fast-reject branch, which the draw must reach.
func TestSeedMulAddMatchesMulThenAdd(t *testing.T) {
	var rejects, inserts atomic.Int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dst := randSeeds(rng)
		a := kmer.Occur{Pos: int32(rng.Intn(50)), RC: rng.Intn(2) == 1}
		b := kmer.Occur{Pos: int32(rng.Intn(50)), RC: rng.Intn(2) == 1}
		prod, _ := seedSemiring.Mul(a, b)

		fresh := randSeeds(rng) // stale slot content a fresh step must overwrite
		if !seedSemiring.MulAdd(&fresh, true, a, b) || fresh != prod {
			return false
		}
		want := seedSemiring.Add(dst, prod)
		if dst.N == 2 && !seedLess(prod.S[0], dst.S[1]) {
			rejects.Add(1)
		} else {
			inserts.Add(1)
		}
		return seedSemiring.MulAdd(&dst, false, a, b) && dst == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if rejects.Load() == 0 || inserts.Load() == 0 {
		t.Fatalf("branch coverage: %d fast rejects, %d inserts", rejects.Load(), inserts.Load())
	}
}

// TestAddSeedKeepsStrictOrder: after every insertion a full set has
// S[0] < S[1] strictly — the invariant the fast reject relies on.
func TestAddSeedKeepsStrictOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Seeds
		for k := rng.Intn(12); k > 0; k-- {
			s = s.addSeed(align.Seed{PU: int32(rng.Intn(6)), PV: int32(rng.Intn(6)), RC: rng.Intn(2) == 1})
			if s.N == 2 && !seedLess(s.S[0], s.S[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
