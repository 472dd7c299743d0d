package atpg

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"factor/internal/factorerr"
	"factor/internal/failpoint"
	"factor/internal/fault"
)

// CheckpointVersion is the journal format version. Decoding rejects
// other versions rather than guessing at field semantics.
//
// Version history: 1 = initial JSON format; 2 = added the "stats"
// deterministic work counters (RunStats), restored on resume so
// counter totals stay split-invariant; 3 = framed format — a header
// carrying a generation counter, the payload length, and a CRC32 of
// the payload, so a torn or corrupt file is detected at load instead
// of being half-trusted, plus the previous-good backup journal
// (path.prev) that LoadLatest falls back to; 4 = added the per-fault
// deterministic-phase "outcome", from which the class counts are
// derived, so a fault a later test detects is counted detected only.
const CheckpointVersion = 4

// BackupSuffix is appended to the journal path for the previous-good
// generation kept by WriteFile's rotation.
const BackupSuffix = ".prev"

// frameMagic opens every checkpoint frame header (framed since v3).
const frameMagic = "FACTORCKPT"

// Bounded retry-with-backoff for checkpoint writes: transient errors
// (injected ones, and real EINTR/ENOSPC-class blips a long-running
// server sees) are retried writeAttempts times with a doubling
// backoff starting at writeBackoff before the run is failed.
const (
	writeAttempts = 3
	writeBackoff  = time.Millisecond
)

// Checkpoint is a resumable journal of an ATPG run, written during the
// deterministic phase (see Options.Checkpoint). It captures everything
// the merge replay needs to continue bit-identically:
//
//   - PostRandom is the detected bitmap at the end of the random phase.
//     It alone determines the deterministic-phase pending list, whose
//     order the merger replays.
//   - Detected is the canonical detected bitmap at the journal point
//     (PostRandom plus every merged deterministic test's detections).
//   - Merged counts the pending-list entries the merger has fully
//     processed; resume skips exactly that prefix.
//   - Tests holds every kept sequence so far (random + deterministic).
//
// Because the deterministic merge replays serial semantics strictly in
// fault-list order and every random fill draws from a per-fault-index
// RNG stream, continuing from (PostRandom, Detected, Merged) yields the
// same final result as the uninterrupted run — for any worker count on
// either side of the interruption. The random phase is never
// journaled: interrupted before the deterministic phase, a run simply
// re-executes the (deterministic, seeded) random phase from scratch.
type Checkpoint struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`

	// Generation is the frame's monotonic flush counter, assigned by
	// the Journal writer; the backup file holds generation-1. It is
	// presentation state (which frame is newer), never part of the
	// deterministic result, so resuming from generation G or G-1 of
	// the same run yields the same final output.
	Generation uint64 `json:"generation"`

	PostRandom []bool           `json:"post_random"`
	Detected   []bool           `json:"detected"`
	Merged     int              `json:"merged"`
	Tests      []fault.Sequence `json:"tests"`

	DetectedRandom int `json:"detected_random"`
	DetectedDet    int `json:"detected_det"`
	UntestableNum  int `json:"untestable"`
	AbortedNum     int `json:"aborted"`
	NotAttempted   int `json:"not_attempted"`
	QuarantinedNum int `json:"quarantined"`

	// Outcome holds each fault's deterministic-phase class at the merge
	// position (0 unmerged or detected, 1 untestable, 2 aborted, 3 not
	// attempted, 4 quarantined). The class counts above are derived from
	// it and Detected.
	Outcome []uint8 `json:"outcome"`

	// Stats journals the deterministic work counters at the merge
	// position, so a resumed run's totals equal the uninterrupted
	// run's.
	Stats RunStats `json:"stats"`

	Errors []CheckpointError `json:"errors,omitempty"`
}

// CheckpointError is the journaled form of a quarantine error. Stacks
// are dropped; the rendered message and fault identity survive resume.
type CheckpointError struct {
	Fault   string `json:"fault,omitempty"`
	Message string `json:"message"`
}

func corruptErr(format string, args ...interface{}) error {
	return factorerr.New(factorerr.StageATPG, factorerr.CodeCheckpointCorrupt, format, args...)
}

// Encode writes the checkpoint as one v3 frame: a header line
//
//	FACTORCKPT <version> <generation> <payload-len> <crc32-hex>\n
//
// followed by exactly payload-len bytes of JSON. The CRC32 (IEEE) is
// over the payload, so any torn write — a truncated payload, a
// half-replaced file, a bit flip — fails loudly at decode instead of
// resuming from silently wrong state.
func (ck *Checkpoint) Encode(w io.Writer) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return factorerr.Wrap(factorerr.StageATPG, factorerr.CodeCheckpoint, err)
	}
	payload = append(payload, '\n')
	header := fmt.Sprintf("%s %d %d %d %08x\n",
		frameMagic, ck.Version, ck.Generation, len(payload), crc32.ChecksumIEEE(payload))
	if _, err := io.WriteString(w, header); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	if _, err := w.Write(payload); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	return nil
}

// DecodeCheckpoint reads a frame written by Encode, verifying the
// header shape, payload length and CRC before trusting any field.
// Failures are classified: CodeCheckpointVersion for a frame from a
// different format version, CodeCheckpointCorrupt for anything torn or
// inconsistent — callers (and exit codes) can tell "delete and
// restart" from "wrong tool build" from "wrong design" (the latter is
// validate's CodeCheckpointMismatch).
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, corruptErr("checkpoint header unreadable: %v", err)
	}
	var magic string
	var version int
	var gen, plen uint64
	var crc uint32
	if _, err := fmt.Sscanf(header, "%s %d %d %d %08x", &magic, &version, &gen, &plen, &crc); err != nil || magic != frameMagic {
		return nil, corruptErr("checkpoint header %q is not a %s frame", strings.TrimSpace(header), frameMagic)
	}
	if version != CheckpointVersion {
		return nil, factorerr.New(factorerr.StageATPG, factorerr.CodeCheckpointVersion,
			"checkpoint format version %d, want %d", version, CheckpointVersion)
	}
	if plen > 1<<32 {
		return nil, corruptErr("checkpoint payload length %d is implausible", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, corruptErr("checkpoint payload truncated: %v", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, corruptErr("checkpoint CRC mismatch: frame %08x, payload %08x", crc, got)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, corruptErr("checkpoint payload undecodable: %v", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, factorerr.New(factorerr.StageATPG, factorerr.CodeCheckpointVersion,
			"checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.Generation != gen {
		return nil, corruptErr("checkpoint generation %d disagrees with frame header %d", ck.Generation, gen)
	}
	return ck, nil
}

// WriteFile durably replaces path with the encoded checkpoint and
// rotates the previous generation to path+BackupSuffix. The sequence
// is crash-ordered so that at every instruction boundary at least one
// of (path, path.prev) holds a complete previous-or-current frame:
//
//  1. write the frame to a temp file in the same directory, fsync it;
//  2. rename the current path (if any) to path.prev — the
//     previous-good generation LoadLatest falls back to;
//  3. rename the temp file onto path;
//  4. fsync the containing directory, so the renames themselves — not
//     just the data — survive a power cut.
//
// Transient failures (injected, or EINTR/ENOSPC-class blips) are
// retried writeAttempts times with doubling backoff; the last error is
// returned when the budget is exhausted. Failpoint sites:
// atpg.checkpoint.encode/.sync/.backup/.rename/.dirsync.
func (ck *Checkpoint) WriteFile(path string) error {
	var last error
	backoff := writeBackoff
	for attempt := 0; attempt < writeAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if last = ck.writeFileOnce(path); last == nil {
			return nil
		}
	}
	return last
}

// writeFileOnce is one durable write attempt (see WriteFile).
func (ck *Checkpoint) writeFileOnce(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	defer os.Remove(tmp.Name())
	err = failpoint.Hit("atpg.checkpoint.encode")
	if err == nil {
		err = ck.Encode(tmp)
	}
	if err == nil {
		if err = failpoint.Hit("atpg.checkpoint.sync"); err == nil {
			err = tmp.Sync()
		}
	}
	if err != nil {
		tmp.Close()
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	if err := tmp.Close(); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	// Rotate the current head to the previous-good backup. A crash
	// between this rename and the next leaves no head at all — which
	// LoadLatest treats exactly like a corrupt head and serves the
	// backup.
	if err := failpoint.Hit("atpg.checkpoint.backup"); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+BackupSuffix); err != nil {
			return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
		}
	}
	if err := failpoint.Hit("atpg.checkpoint.rename"); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	// fsync the directory so the renames are on disk: without this the
	// file data is durable but the directory entry replacement may not
	// be, and a crash can resurrect the old (or no) journal.
	if err := failpoint.Hit("atpg.checkpoint.dirsync"); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	if err := syncDir(dir); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	return nil
}

// syncDir fsyncs a directory; platforms that refuse to fsync
// directories (some filesystems return EINVAL) are treated as best
// effort, matching what databases do.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// LoadCheckpoint reads the checkpoint file at path (the head journal
// only — no backup fallback; use LoadLatest for the recovery policy).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	if err := failpoint.Hit("atpg.checkpoint.load"); err != nil {
		return nil, factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, factorerr.Wrap(factorerr.StageIO, factorerr.CodeCheckpoint, err)
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}

// LoadLatest implements the crash-recovery policy over the journal
// pair WriteFile maintains: load the head at path; if the head is
// missing or fails frame validation (torn write, CRC mismatch,
// undecodable payload), fall back one generation to path+BackupSuffix.
// The boolean reports whether the backup was served. A version
// mismatch is NOT recovered — the backup was written by the same tool
// and would only mask the real problem — and when both frames are bad
// the head's error is returned (the backup's is secondary).
func LoadLatest(path string) (*Checkpoint, bool, error) {
	ck, err := LoadCheckpoint(path)
	if err == nil {
		return ck, false, nil
	}
	if !errors.Is(err, os.ErrNotExist) && !errors.Is(err, &factorerr.Error{Code: factorerr.CodeCheckpointCorrupt}) {
		return nil, false, err
	}
	prev, perr := LoadCheckpoint(path + BackupSuffix)
	if perr != nil {
		return nil, false, err
	}
	return prev, true, nil
}

// Journal writes a run's checkpoints to a file with monotonic
// generation numbering and previous-good backup rotation. Use its
// Flush as Options.Checkpoint:
//
//	j := atpg.NewJournal(path)
//	opts.Checkpoint = j.Flush
type Journal struct {
	path string
	gen  uint64
}

// NewJournal opens a journal writer on path. If a loadable frame
// already exists there (a resume writing back to the same journal),
// generation numbering continues after it; otherwise it starts at 1.
func NewJournal(path string) *Journal {
	j := &Journal{path: path}
	if ck, _, err := LoadLatest(path); err == nil {
		j.gen = ck.Generation
	}
	return j
}

// Flush stamps the next generation onto ck and durably writes it (see
// WriteFile for the crash ordering and retry policy).
func (j *Journal) Flush(ck *Checkpoint) error {
	j.gen++
	ck.Generation = j.gen
	return ck.WriteFile(j.path)
}

// fingerprint hashes everything that determines the run's outcome:
// netlist structure, the result-shaping options (Workers and TimeBudget
// excluded — both are free to change across a resume), and the fault
// list. A checkpoint is only valid against an identical fingerprint.
func (e *Engine) fingerprint(faults []fault.Fault) string {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	puts := func(s string) {
		put(int64(len(s)))
		io.WriteString(h, s)
	}

	puts(e.nl.Name)
	put(int64(len(e.nl.Gates)))
	for _, g := range e.nl.Gates {
		put(int64(g.Kind))
		put(int64(len(g.Fanin)))
		for _, f := range g.Fanin {
			put(int64(f))
		}
	}
	for _, name := range e.nl.PINames {
		puts(name)
	}
	for _, po := range e.nl.POs {
		put(int64(po))
	}

	o := e.opts
	put(int64(o.MaxFrames))
	put(int64(o.BacktrackLimit))
	put(int64(o.RandomSequences))
	put(int64(o.RandomSeqLen))
	put(o.Seed)
	if o.DisableRandomPhase {
		put(1)
	} else {
		put(0)
	}
	// The guide changes which sequences deterministic search emits, so
	// a journal is only replayable under the same guide. GuideDefault
	// hashes as 0, keeping pre-guide fingerprints stable.
	put(int64(o.Guide))

	put(int64(len(faults)))
	for _, f := range faults {
		put(int64(f.Gate))
		put(int64(f.Pin))
		if f.SAOne {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// validate checks a checkpoint against the engine and fault list it is
// about to resume. A fingerprint or shape mismatch is classified
// CodeCheckpointMismatch (the journal belongs to a different design or
// option set); an internally inconsistent journal is
// CodeCheckpointCorrupt.
func (ck *Checkpoint) validate(fingerprint string, nfaults int) error {
	if ck.Fingerprint != fingerprint {
		return factorerr.New(factorerr.StageATPG, factorerr.CodeCheckpointMismatch,
			"checkpoint fingerprint %s does not match this netlist/options/fault list (%s)",
			ck.Fingerprint, fingerprint)
	}
	if len(ck.PostRandom) != nfaults || len(ck.Detected) != nfaults || len(ck.Outcome) != nfaults {
		return factorerr.New(factorerr.StageATPG, factorerr.CodeCheckpointMismatch,
			"checkpoint bitmap length %d/%d/%d, want %d", len(ck.PostRandom), len(ck.Detected), len(ck.Outcome), nfaults)
	}
	pending := 0
	for i, d := range ck.PostRandom {
		if !d {
			pending++
		}
		if d && !ck.Detected[i] {
			return factorerr.New(factorerr.StageATPG, factorerr.CodeCheckpointCorrupt,
				"checkpoint detected bitmap lost fault %d from the post-random set", i)
		}
	}
	if ck.Merged < 0 || ck.Merged > pending {
		return factorerr.New(factorerr.StageATPG, factorerr.CodeCheckpointCorrupt,
			"checkpoint merge position %d outside pending list of %d", ck.Merged, pending)
	}
	return nil
}
