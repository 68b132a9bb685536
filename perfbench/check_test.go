package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/elba"
	"repro/internal/core"
	"repro/internal/pipeline"
)

func TestMismatchNamesEveryDifferingField(t *testing.T) {
	want := pins["overlap-heavy"]
	if d := mismatch(want, want); d != "" {
		t.Fatalf("equal fingerprints reported %q", d)
	}
	got := want
	got.Checksum = "sha256:other"
	got.Contigs++
	got.CommBytes++
	got.CommMsgs++
	got.Work[1]++
	d := mismatch(got, want)
	for _, field := range []string{"checksum", "contigs", "comm bytes", "comm msgs", pipeline.StageDetectOverlap + " work"} {
		if !strings.Contains(d, field) {
			t.Errorf("mismatch %q does not name %s", d, field)
		}
	}
	if strings.Contains(d, pipeline.StageAlignment) {
		t.Errorf("mismatch %q names a stage whose work agrees", d)
	}
}

func TestContigChecksumMatchesFingerprint(t *testing.T) {
	contigs := []core.Contig{{Seq: bytes.Repeat([]byte("ACGT"), 50)}, {Seq: []byte("GATTACA"), Circular: true}}
	var fa bytes.Buffer
	if err := elba.WriteContigs(&fa, contigs); err != nil {
		t.Fatal(err)
	}
	sum, err := contigChecksum(&fa)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintOf(&pipeline.Output{Contigs: contigs})
	if sum != fp.Checksum || fp.Contigs != 2 {
		t.Fatalf("FASTA checksum %s, output checksum %s (%d contigs): want equal, 2", sum, fp.Checksum, fp.Contigs)
	}
	contigs[1].Seq = []byte("GATTACC")
	if fingerprintOf(&pipeline.Output{Contigs: contigs}).Checksum == sum {
		t.Fatal("checksum ignores a changed base")
	}
}

func TestChecksCountFailures(t *testing.T) {
	var tl tally
	ref := pins["align-heavy"]
	bad := ref
	bad.CommMsgs++
	tl.op(against(ref, &ref))
	tl.op(against(bad, &ref))
	tl.op(against(ref, nil))
	tl.op(pinProblem("align-heavy", ref))
	tl.op(pinProblem("no-such-workload", ref))
	if tl.attempted != 5 || tl.failed != 3 || len(tl.problems) != 3 {
		t.Fatalf("tally %+v: want 5 attempted, 3 failed with their reasons", tl)
	}
}

func TestEveryBatchWorkloadIsPinned(t *testing.T) {
	for name := range workloads {
		if _, ok := pins[name]; !ok && name != "param-sweep" {
			t.Errorf("workload %s has no pin", name)
		}
	}
}
