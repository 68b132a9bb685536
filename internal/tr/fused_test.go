package tr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bidir"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// unfusedPaths is pathSemiring without its fused step: the Mul/Add reference.
var unfusedPaths = spmat.Semiring[bidir.Edge, bidir.Edge, PathMin]{Mul: pathSemiring.Mul, Add: pathSemiring.Add}

func randEdge(rng *rand.Rand) bidir.Edge {
	return bidir.Edge{Dir: uint8(rng.Intn(4)), Suf: int32(rng.Intn(500))}
}

// randPathMin builds a reachable accumulator value: the Add-fold of up to
// three random products (the zero-product case is the all-inf identity).
func randPathMin(rng *rand.Rand) PathMin {
	p := newPathMin()
	for k := rng.Intn(4); k > 0; k-- {
		if m, ok := pathSemiring.Mul(randEdge(rng), randEdge(rng)); ok {
			p = pathSemiring.Add(p, m)
		}
	}
	return p
}

// TestPathAddAssociativeCommutative: SUMMA folds partial products in a
// grid-dependent order, so the path Add must be associative and commutative.
func TestPathAddAssociativeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randPathMin(rng), randPathMin(rng), randPathMin(rng)
		add := pathSemiring.Add
		return add(a, b) == add(b, a) && add(add(a, b), c) == add(a, add(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPathMulAddMatchesMulThenAdd: the fused step writes Mul into a fresh
// slot and folds it into a live one exactly like Add; an incompatible
// direction pair annihilates and leaves the slot untouched either way.
func TestPathMulAddMatchesMulThenAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1, e2 := randEdge(rng), randEdge(rng)
		prod, ok := pathSemiring.Mul(e1, e2)
		for _, fresh := range []bool{true, false} {
			dst := randPathMin(rng)
			before := dst
			want := prod
			if !fresh {
				want = pathSemiring.Add(dst, prod)
			}
			if !ok {
				want = before
			}
			if pathSemiring.MulAdd(&dst, fresh, e1, e2) != ok || dst != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedPathSpGEMMMatchesUnfusedReference pins the fused S ⊗ S at P = 1,
// 4 and 9 (blocking and nonblocking) to the unfused map-accumulator
// reference, triple for triple, with the exact product count.
func TestFusedPathSpGEMMMatchesUnfusedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		n := int32(20 + rng.Intn(40))
		cell := map[[2]int32]bidir.Edge{}
		for k := int(n) * (2 + rng.Intn(6)); k > 0; k-- {
			cell[[2]int32{rng.Int31n(n), rng.Int31n(n)}] = randEdge(rng)
		}
		var all []spmat.Triple[bidir.Edge]
		rowNnz, colNnz := map[int32]int64{}, map[int32]int64{}
		for rc, e := range cell {
			all = append(all, spmat.Triple[bidir.Edge]{Row: rc[0], Col: rc[1], Val: e})
			rowNnz[rc[0]]++
			colNnz[rc[1]]++
		}
		var wantProducts int64
		for k, c := range colNnz {
			wantProducts += c * rowNnz[k]
		}
		s := spmat.NewCOO(n, n, append([]spmat.Triple[bidir.Edge](nil), all...), nil).ToCSC()
		ref := spmat.MultiplyMap(s, s, unfusedPaths)
		if got := spmat.Multiply(s, s, pathSemiring); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: fused local Multiply diverged from the unfused reference", trial)
		}
		for _, p := range []int{1, 4, 9} {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("trial=%d/P=%d/async=%v", trial, p, async), func(t *testing.T) {
					var got []spmat.Triple[PathMin]
					var products atomic.Int64
					err := mpi.Run(p, func(c *mpi.Comm) {
						g := grid.New(c)
						ds := spmat.FromGlobalTriples(g, n, n, all, nil)
						var k int64
						var dn *spmat.Dist[PathMin]
						if async {
							dn = spmat.SpGEMMAsync(ds, ds, pathSemiring, &k)
						} else {
							dn = spmat.SpGEMMCounted(ds, ds, pathSemiring, &k)
						}
						products.Add(k)
						if ts := dn.GatherTriples(0); c.Rank() == 0 {
							got = ts
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, ref.Ts) {
						t.Fatal("fused SpGEMM diverged from the unfused reference")
					}
					if products.Load() != wantProducts {
						t.Fatalf("%d products, want %d", products.Load(), wantProducts)
					}
				})
			}
		}
	}
}
