package atpg

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factor/internal/factorerr"
	"factor/internal/failpoint"
	"factor/internal/fault"
)

func testCheckpoint(gen uint64, merged int) *Checkpoint {
	return &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: "00deadbeef00cafe",
		Generation:  gen,
		PostRandom:  []bool{true, false, true},
		Detected:    []bool{true, false, true},
		Merged:      merged,
		Tests: []fault.Sequence{
			{{"a": 0, "b": 1}},
		},
	}
}

// TestDecodeClassifiesCorruption: every way a frame can be torn —
// truncated header, garbage header, truncated payload, flipped payload
// byte (CRC), generation disagreement — must land on
// CodeCheckpointCorrupt, while a frame from another format version is
// CodeCheckpointVersion. All of them still match the CodeCheckpoint
// family wildcard.
func TestDecodeClassifiesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	if err := testCheckpoint(1, 0).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string][]byte{
		"empty file":        {},
		"garbage header":    []byte("NOTACKPT 3 1 10 00000000\nxxxxxxxxxx"),
		"truncated header":  good[:5],
		"truncated payload": good[:len(good)-4],
		"flipped byte":      append(append([]byte{}, good[:len(good)-2]...), good[len(good)-2]^0x40, '\n'),
	}
	for name, data := range corrupt {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpointCorrupt}) {
			t.Errorf("%s: error = %v, want CodeCheckpointCorrupt", name, err)
		}
		if !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpoint}) {
			t.Errorf("%s: error %v does not match the CodeCheckpoint family", name, err)
		}
	}

	// A different format version is a distinct condition: the tool
	// build is wrong, not the file.
	header := strings.SplitN(string(good), "\n", 2)
	// The previous format version: old journals must read as a version
	// mismatch, not as corruption.
	vheader := strings.Replace(header[0], fmt.Sprintf("FACTORCKPT %d", CheckpointVersion),
		fmt.Sprintf("FACTORCKPT %d", CheckpointVersion-1), 1)
	if err := os.WriteFile(path, []byte(vheader+"\n"+header[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(path)
	if !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpointVersion}) {
		t.Fatalf("version mismatch error = %v, want CodeCheckpointVersion", err)
	}
	if errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpointCorrupt}) {
		t.Fatalf("version mismatch error %v must not read as corruption", err)
	}
}

// TestLoadLatestFallsBack: after two generations, a corrupted (or
// deleted) head journal recovers from the previous-good backup; a
// version-mismatched head does not.
func TestLoadLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "atpg.ckpt")
	j := NewJournal(path)
	if err := j.Flush(testCheckpoint(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(testCheckpoint(0, 1)); err != nil {
		t.Fatal(err)
	}

	ck, fellBack, err := LoadLatest(path)
	if err != nil || fellBack {
		t.Fatalf("healthy head: LoadLatest = (%v, %v), want generation 2", err, fellBack)
	}
	if ck.Generation != 2 || ck.Merged != 1 {
		t.Fatalf("healthy head loaded generation %d merged %d, want 2/1", ck.Generation, ck.Merged)
	}

	// Corrupt the head: fall back one generation.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, fellBack, err = LoadLatest(path)
	if err != nil || !fellBack {
		t.Fatalf("corrupt head: LoadLatest = (%v, %v), want backup", err, fellBack)
	}
	if ck.Generation != 1 || ck.Merged != 0 {
		t.Fatalf("fallback loaded generation %d merged %d, want 1/0", ck.Generation, ck.Merged)
	}

	// Delete the head entirely (crash between the two renames): same
	// recovery.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if ck, fellBack, err = LoadLatest(path); err != nil || !fellBack || ck.Generation != 1 {
		t.Fatalf("missing head: LoadLatest = (gen %v, %v, %v), want backup generation 1",
			ck, fellBack, err)
	}

	// Both gone: the head's error surfaces.
	if err := os.Remove(path + BackupSuffix); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing both: err = %v, want os.ErrNotExist", err)
	}

	// A version-mismatched head is not recovered: the backup came from
	// the same build and would only mask the real problem.
	if err := NewJournal(path).Flush(testCheckpoint(0, 1)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(raw), fmt.Sprintf("FACTORCKPT %d", CheckpointVersion), "FACTORCKPT 99", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(path); !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpointVersion}) {
		t.Fatalf("version-mismatched head: err = %v, want CodeCheckpointVersion (no fallback)", err)
	}
}

// TestJournalGenerations: Flush numbers generations monotonically and
// a reopened Journal continues after the last durable frame instead of
// restarting at 1 (which would break the "backup is one generation
// older" invariant).
func TestJournalGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	j := NewJournal(path)
	for i := 1; i <= 3; i++ {
		ck := testCheckpoint(0, i)
		if err := j.Flush(ck); err != nil {
			t.Fatal(err)
		}
		if ck.Generation != uint64(i) {
			t.Fatalf("flush %d stamped generation %d", i, ck.Generation)
		}
	}
	prev, err := LoadCheckpoint(path + BackupSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Generation != 2 {
		t.Fatalf("backup holds generation %d, want 2", prev.Generation)
	}

	j2 := NewJournal(path)
	ck := testCheckpoint(0, 4)
	if err := j2.Flush(ck); err != nil {
		t.Fatal(err)
	}
	if ck.Generation != 4 {
		t.Fatalf("reopened journal stamped generation %d, want 4", ck.Generation)
	}
}

// TestWriteFileRetries: a persistently failing write site is retried
// the full budget and then surfaces the injected error; the journal
// pair still holds the previous good generation afterwards.
func TestWriteFileRetries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	j := NewJournal(path)
	if err := j.Flush(testCheckpoint(0, 0)); err != nil {
		t.Fatal(err)
	}

	r, err := failpoint.Parse("atpg.checkpoint.rename=error")
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Activate(r)
	defer failpoint.Deactivate()

	err = j.Flush(testCheckpoint(0, 1))
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("flush under persistent rename failure = %v, want injected error", err)
	}
	stats := failpoint.Active().Stats()
	if !strings.Contains(stats, "3/3") {
		t.Fatalf("stats %q: want %d triggers (one per retry attempt)", stats, writeAttempts)
	}

	// The failed flush rotated the head to .prev before the rename
	// failed; recovery still has the previous good generation.
	failpoint.Deactivate()
	ck, fellBack, err := LoadLatest(path)
	if err != nil || !fellBack || ck.Generation != 1 {
		t.Fatalf("after failed flush: LoadLatest = (%+v, %v, %v), want backup generation 1",
			ck, fellBack, err)
	}
}
