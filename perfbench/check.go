package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fasta"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// defaultSeed is the seed whose outputs are pinned below. Any other seed is
// checked by equivalence alone: every assembly of the run must match the
// traced stage-stepped reference chain bit for bit.
const defaultSeed = 1

// mainStages are the stages whose work counters a fingerprint carries, in
// graph order (FastaReader does no counted work).
var mainStages = [...]string{
	pipeline.StageCountKmer, pipeline.StageDetectOverlap, pipeline.StageAlignment,
	pipeline.StageTrReduction, pipeline.StageExtractContig,
}

// fingerprint is what the checks compare between two assemblies of one read
// set: the contig checksum, the traffic counters and the per-stage work
// counters. All of them are deterministic for given reads and options, on
// any schedule.
type fingerprint struct {
	Checksum  string
	Contigs   int
	CommBytes int64
	CommMsgs  int64
	Work      [len(mainStages)]int64
}

// fingerprintOf reads an assembly's fingerprint from its output.
func fingerprintOf(out *pipeline.Output) fingerprint {
	seqs := make([][]byte, len(out.Contigs))
	for i, c := range out.Contigs {
		seqs[i] = c.Seq
	}
	fp := fingerprint{
		Checksum:  obs.ChecksumSeqs(seqs),
		Contigs:   len(seqs),
		CommBytes: out.Stats.CommBytes,
		CommMsgs:  out.Stats.CommMsgs,
	}
	if out.Stats.Timers != nil {
		for i, s := range mainStages {
			fp.Work[i] = out.Stats.Timers.Get(s).SumWork
		}
	}
	return fp
}

// mismatch names every field in which got differs from want; "" when equal.
func mismatch(got, want fingerprint) string {
	var diffs []string
	if got.Checksum != want.Checksum {
		diffs = append(diffs, fmt.Sprintf("checksum %.20s… want %.20s…", got.Checksum, want.Checksum))
	}
	if got.Contigs != want.Contigs {
		diffs = append(diffs, fmt.Sprintf("contigs %d want %d", got.Contigs, want.Contigs))
	}
	if got.CommBytes != want.CommBytes {
		diffs = append(diffs, fmt.Sprintf("comm bytes %d want %d", got.CommBytes, want.CommBytes))
	}
	if got.CommMsgs != want.CommMsgs {
		diffs = append(diffs, fmt.Sprintf("comm msgs %d want %d", got.CommMsgs, want.CommMsgs))
	}
	for i, s := range mainStages {
		if got.Work[i] != want.Work[i] {
			diffs = append(diffs, fmt.Sprintf("%s work %d want %d", s, got.Work[i], want.Work[i]))
		}
	}
	return strings.Join(diffs, "; ")
}

// contigChecksum reads a contig FASTA (the daemon's /contigs body) and
// returns the same checksum fingerprintOf computes from an Output.
func contigChecksum(r io.Reader) (string, error) {
	recs, err := fasta.Read(r)
	if err != nil {
		return "", err
	}
	seqs := make([][]byte, len(recs))
	for i, rec := range recs {
		seqs[i] = rec.Seq
	}
	return obs.ChecksumSeqs(seqs), nil
}

// pins are each batch workload's fingerprint at defaultSeed. The
// param-sweep cold job assembles the overlap-heavy reads under the same
// options, so it shares the overlap-heavy pin; on these reads every swept
// tr_fuzz value reduces the string graph to the same contigs, so the
// checksum of that pin holds for every hit job too.
var pins = map[string]fingerprint{
	"overlap-heavy": {
		Checksum: "sha256:da031071cc27b74f9c33fb691bcbac0c6159415bee152e2f56125982dbe07371",
		Contigs:  3, CommBytes: 107124313, CommMsgs: 1050,
		Work: [len(mainStages)]int64{2377066, 89146881, 312736490, 45022, 65355},
	},
	"align-heavy": {
		Checksum: "sha256:3f4cee4ca0796634477a3dc476820453364a118d22571d5174fe221fe87c6431",
		Contigs:  5, CommBytes: 10648797, CommMsgs: 1051,
		Work: [len(mainStages)]int64{798646, 89750, 309551603, 6902, 88109},
	},
}

// tally counts attempted operations and the ones that failed, keeping the
// first few failure messages for the report.
type tally struct {
	attempted, failed int
	problems          []string
}

// op records one operation; a non-empty problem marks it failed.
func (t *tally) op(problem string) {
	t.attempted++
	if problem == "" {
		return
	}
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, problem)
	}
}
