package overlap

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/fasta"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/readsim"
	"repro/internal/trace"
)

// BenchmarkDetectCandidates times the DetectOverlap stage — A, Aᵀ and the
// seed-semiring SpGEMM C = A·Aᵀ — on a small C. elegans-like read set, after
// k-mer counting, and reports semiring throughput in products/s.
func BenchmarkDetectCandidates(b *testing.B) {
	reads := readsim.Seqs(readsim.Generate(readsim.CElegansLike, 20000, 1).Reads)
	cfg := testConfig(31, 25)
	cfg.ReliableHigh = 160
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			var products atomic.Int64
			err := mpi.Run(p, func(c *mpi.Comm) {
				g := grid.New(c)
				store := fasta.FromGlobal(c, reads)
				var res Result
				kres := CountKmers(g, store, cfg, trace.New(), &res)
				mpi.Barrier(c)
				if c.Rank() == 0 {
					b.ResetTimer() // the other ranks wait in the barrier below
				}
				mpi.Barrier(c)
				tm := trace.New()
				for i := 0; i < b.N; i++ {
					DetectCandidates(g, store, kres, cfg, tm, &res)
				}
				products.Add(tm.Entry("DetectOverlap").Work)
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(products.Load())/b.Elapsed().Seconds(), "products/s")
		})
	}
}
