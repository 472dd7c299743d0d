package service

// Satellite coverage: netlist.Snapshot as the CAS storage format —
// round-trip a store entry through write/load, and assert the
// design-hash key is stable across worker counts and across a
// shards-topology change (the serving analogue of the corpus
// journal's topology-free fingerprint).

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"factor/internal/netlist"
)

func TestStoreResultRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	b, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	hash := Hash(snap, spec)
	report := []byte(`{"tool":"factor"}` + "\n")

	if s.HasResult(hash) {
		t.Fatal("fresh store claims a result")
	}
	if _, err := s.Report(hash); !os.IsNotExist(err) {
		t.Fatalf("missing report read: %v, want not-exist", err)
	}
	if err := s.PutResult(hash, snap, []byte("{}\n"), report); err != nil {
		t.Fatal(err)
	}
	if !s.HasResult(hash) {
		t.Fatal("stored result not found")
	}
	got, err := s.Report(hash)
	if err != nil || !bytes.Equal(got, report) {
		t.Fatalf("report round-trip: %q, %v", got, err)
	}

	// The stored snapshot must load back into a usable netlist whose
	// re-snapshot is byte-identical (the codec is canonical).
	stored, err := s.Snapshot(hash)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := netlist.LoadSnapshot(stored)
	if err != nil {
		t.Fatalf("loading stored snapshot: %v", err)
	}
	if !bytes.Equal(nl.Snapshot(), snap) {
		t.Fatal("snapshot round-trip not byte-identical")
	}

	// Idempotent republish (a job re-run after a crash mid-publish).
	if err := s.PutResult(hash, snap, []byte("{}\n"), report); err != nil {
		t.Fatalf("republish: %v", err)
	}
}

// TestHashStableAcrossTopology: the content address must not depend on
// how the pipeline will be parallelized — the same design hashes
// identically whatever Workers says, and rebuilding the netlist from
// scratch (a different process topology entirely) reproduces the
// exact snapshot bytes and therefore the same key.
func TestHashStableAcrossTopology(t *testing.T) {
	spec := testSpec(2)

	b1, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	key := Hash(b1.Snapshot(), spec)

	for _, workers := range []int{1, 4, 9} {
		w := spec
		w.Workers = workers
		bw, err := Build(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if got := Hash(bw.Snapshot(), w); got != key {
			t.Fatalf("workers=%d changed the design hash", workers)
		}
	}

	// Fresh builds (new parse + synth, as a restarted or differently
	// sharded server would do) must reproduce identical snapshot
	// bytes — the property the corpus journal's topology-free
	// fingerprint relies on.
	for i := 0; i < 3; i++ {
		bi, err := Build(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bi.Snapshot(), b1.Snapshot()) {
			t.Fatalf("rebuild %d produced different snapshot bytes", i)
		}
	}
}

func TestStoreJobLedger(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*JobRecord{
		{ID: "j000002", Seq: 2, Tenant: "b", Hash: "h2", State: "queued"},
		{ID: "j000000", Seq: 0, Tenant: "a", Hash: "h0", State: "done"},
		{ID: "j000001", Seq: 1, Tenant: "a", Hash: "h1", State: "running"},
	}
	for _, r := range recs {
		if err := s.PutJob(r); err != nil {
			t.Fatal(err)
		}
	}
	// A torn record (crash mid-rewrite before the atomic rename
	// existed) must be skipped, not fail the boot.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j000003.json"), []byte(`{"id": "j0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d records, want 3", len(got))
	}
	for i, want := range []string{"j000000", "j000001", "j000002"} {
		if got[i].ID != want {
			t.Fatalf("record %d = %s, want %s (sequence order)", i, got[i].ID, want)
		}
	}
}

// TestStoreConcurrentPutSameHash publishes one entry from many
// goroutines at once, as two jobs with the same content address do.
// Every write must succeed and leave the entry whole with no temp files.
func TestStoreConcurrentPutSameHash(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hash = "7c8d517dda4900c862057758f805be6213fe567405795fd609e7b13f072746a2"
	snap, spec, report := []byte("snapshot\n"), []byte("{}\n"), []byte(`{"tool":"factor"}`+"\n")
	errs := make(chan error, 16)
	for i := 0; i < cap(errs); i++ {
		go func() { errs <- s.PutResult(hash, snap, spec, report) }()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent PutResult: %v", err)
		}
	}
	got, err := s.Report(hash)
	if err != nil || !bytes.Equal(got, report) {
		t.Fatalf("report after concurrent puts: %q, %v", got, err)
	}
	entries, err := os.ReadDir(s.entryDir(hash))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("entry holds %v, want exactly spec.json, design.snap and report.json", names)
	}
}
