package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"

	"factor/internal/atpg"
	"factor/internal/factorerr"
)

// Store is the server's durable state: a content-addressed result
// store plus the job ledger that makes in-flight jobs resumable across
// a restart.
//
// Layout under the data dir:
//
//	cas/<hh>/<hash>/spec.json     canonical result-shaping options
//	cas/<hh>/<hash>/design.snap   compiled-netlist snapshot (FCSN codec)
//	cas/<hh>/<hash>/report.json   the canonical report bytes
//	jobs/<id>.json                job ledger record
//	jobs/<id>.ckpt                ATPG checkpoint journal (+ .prev)
//
// report.json is written last via rename, so its presence is the
// completion marker: a crash mid-publish leaves a partial entry that
// the next run of the same job simply overwrites with identical bytes.
type Store struct {
	root string
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	s := &Store{root: dir}
	for _, d := range []string{s.casRoot(), s.jobsRoot()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err)
		}
	}
	return s, nil
}

func (s *Store) casRoot() string  { return filepath.Join(s.root, "cas") }
func (s *Store) jobsRoot() string { return filepath.Join(s.root, "jobs") }

func (s *Store) entryDir(hash string) string {
	shard := "00"
	if len(hash) >= 2 {
		shard = hash[:2]
	}
	return filepath.Join(s.casRoot(), shard, hash)
}

// CheckpointPath is where a job's ATPG journal lives.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.jobsRoot(), id+".ckpt")
}

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.jobsRoot(), id+".json")
}

// writeFileAtomic writes data via a temp file + rename so readers
// never observe a torn file. The temp name is unique: two jobs with the
// same content address can publish the same entry at once, and a
// shared temp name let one writer rename the other's file away.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err)
	}
	return nil
}

// PutResult publishes a completed job's artifacts under its content
// address. Idempotent: re-running the same hash writes byte-identical
// files.
func (s *Store) PutResult(hash string, snapshot, spec, report []byte) error {
	dir := s.entryDir(hash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err)
	}
	if err := writeFileAtomic(filepath.Join(dir, "spec.json"), spec); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, "design.snap"), snapshot); err != nil {
		return err
	}
	// The completion marker goes last.
	return writeFileAtomic(filepath.Join(dir, "report.json"), report)
}

// Report returns the stored report bytes for hash, or os.ErrNotExist.
func (s *Store) Report(hash string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.entryDir(hash), "report.json"))
}

// Snapshot returns the stored compiled-netlist snapshot for hash.
func (s *Store) Snapshot(hash string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.entryDir(hash), "design.snap"))
}

// HasResult reports whether a completed entry exists for hash.
func (s *Store) HasResult(hash string) bool {
	_, err := os.Stat(filepath.Join(s.entryDir(hash), "report.json"))
	return err == nil
}

// JobRecord is the persisted form of a job: enough to re-enqueue and
// resume it after a server restart.
type JobRecord struct {
	ID                 string  `json:"id"`
	Seq                int     `json:"seq"`
	Tenant             string  `json:"tenant"`
	Hash               string  `json:"hash"`
	Spec               JobSpec `json:"spec"`
	CancelOnDisconnect bool    `json:"cancel_on_disconnect,omitempty"`
	State              string  `json:"state"`
	Cached             bool    `json:"cached,omitempty"`
	Error              string  `json:"error,omitempty"`
}

// PutJob persists a job ledger record (atomic replace).
func (s *Store) PutJob(rec *JobRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err)
	}
	return writeFileAtomic(s.jobPath(rec.ID), append(data, '\n'))
}

// LoadJobs reads every ledger record, ordered by submission sequence —
// the restart rescan that turns non-terminal records back into queued
// work.
func (s *Store) LoadJobs() ([]*JobRecord, error) {
	entries, err := os.ReadDir(s.jobsRoot())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, factorerr.Wrap(factorerr.StageIO, factorerr.CodeIO, err)
	}
	var recs []*JobRecord
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.jobsRoot(), e.Name()))
		if err != nil {
			continue
		}
		rec := &JobRecord{}
		if err := json.Unmarshal(data, rec); err != nil {
			continue // torn record from a crash mid-rewrite; drop it
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, nil
}

// TracePath is where a job's Chrome-trace artifact lives.
func (s *Store) TracePath(id string) string {
	return filepath.Join(s.jobsRoot(), id+".trace.json")
}

// PutTrace publishes a completed job's Chrome-trace JSON (atomic
// replace). The trace is diagnostic: it is keyed by job, not content
// address, because wall-clock spans legitimately differ between runs
// of the same design.
func (s *Store) PutTrace(id string, data []byte) error {
	return writeFileAtomic(s.TracePath(id), data)
}

// Trace returns a job's stored trace bytes, or os.ErrNotExist.
func (s *Store) Trace(id string) ([]byte, error) {
	return os.ReadFile(s.TracePath(id))
}

// RemoveCheckpoint discards a finished job's journal (best effort).
func (s *Store) RemoveCheckpoint(id string) {
	os.Remove(s.CheckpointPath(id))
	os.Remove(s.CheckpointPath(id) + atpg.BackupSuffix)
}
