package kvstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store is the durable prefix store: an in-memory entry set mirrored to
// FMC1-style snapshot files on a VFS. Following the full-rewrite commit
// discipline of the format, Commit publishes the complete current entry
// set as one new snapshot generation, crash-safely:
//
//	write snap-<gen>.fmc1.tmp → Sync → Rename to snap-<gen>.fmc1 → SyncDir
//
// and only then unlinks older generations. A crash at any point leaves
// either the new generation fully durable or the previous one intact;
// Recover walks generations newest-first and loads the first one that
// validates, so torn or unsynced publishes fall back cleanly.
//
// Entries are keyed by their KVFS path; anonymous spills get a unique
// synthetic key and are dropped (not re-imported, absent from the next
// commit) at recovery — disk garbage from processes that did not survive
// the restart.
type Store struct {
	fs VFS

	mu      sync.Mutex
	seq     uint64 // last assigned entry seq
	gen     uint64 // last published snapshot generation
	entries map[string]*SnapshotEntry
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".fmc1"
	tmpSuffix  = ".tmp"
)

// NewStore returns an empty store over fs. Call Recover to load whatever
// a previous incarnation published.
func NewStore(fs VFS) *Store {
	return &Store{fs: fs, entries: make(map[string]*SnapshotEntry)}
}

// key returns the entry's map key: the path for named files, a unique
// synthetic key for anonymous spills.
func key(e *SnapshotEntry) string {
	if e.Path != "" {
		return e.Path
	}
	return fmt.Sprintf("!anon-%d", e.Seq)
}

// Put adds or replaces an entry, assigning it the next store seq, and
// returns the key a later Drop must use. Durable at the next Commit.
func (s *Store) Put(e SnapshotEntry) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	e.Seq = s.seq
	k := key(&e)
	s.entries[k] = &e
	return k
}

// Drop removes an entry (its KVFS file is gone). Durable at the next
// Commit.
func (s *Store) Drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, key)
}

// snapshotLocked returns the entries in ascending Seq order — the
// deterministic iteration every snapshot write uses. Caller holds s.mu.
func (s *Store) snapshotLocked() []SnapshotEntry {
	out := make([]SnapshotEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Commit publishes the current entry set as a new snapshot generation
// using the crash-safe temp-file + Rename + SyncDir protocol, then
// unlinks older generations. The calling actor is billed the write.
func (s *Store) Commit() error {
	s.mu.Lock()
	entries := s.snapshotLocked()
	s.gen++
	gen := s.gen
	s.mu.Unlock()

	data, err := EncodeSnapshot(entries)
	if err != nil {
		return err
	}
	name := snapName(gen)
	tmp := name + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, name); err != nil {
		return err
	}
	if err := s.fs.SyncDir(); err != nil {
		return err
	}
	// The new generation is durable; older ones (and stale temp files)
	// are garbage now. Their removal needs no second SyncDir for
	// correctness — if it is lost to a crash, Recover prefers the newest
	// valid generation anyway.
	names, err := s.fs.List()
	if err != nil {
		return err
	}
	for _, old := range names {
		if old == name {
			continue
		}
		if g, isTmp, ok := parseSnapName(old); ok && (isTmp || g != gen) {
			s.fs.Remove(old)
		}
	}
	return nil
}

// snapName formats a generation's published file name.
func snapName(gen uint64) string {
	return fmt.Sprintf("%s%08d%s", snapPrefix, gen, snapSuffix)
}

// parseSnapName extracts the generation from a snapshot or temp file
// name.
func parseSnapName(name string) (gen uint64, tmp bool, ok bool) {
	if strings.HasSuffix(name, tmpSuffix) {
		tmp = true
		name = strings.TrimSuffix(name, tmpSuffix)
	}
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	g, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false, false
	}
	return g, tmp, true
}

// Recover loads the newest snapshot generation that validates, walking
// older generations on corruption (a torn write that escaped the publish
// protocol, or a fault-injecting VFS). Only the header and index of a
// candidate are read up front; keep decides per index record whether the
// entry's payload is fetched and retained (nil keeps every named entry).
// Skipped and unnamed entries are dropped from the store — absent from
// the next Commit, they are garbage-collected by it.
//
// Recover returns the retained entries in ascending Seq order. It must
// run in a clock-actor context: the reads bill virtual disk time.
func (s *Store) Recover(keep func(IndexRecord) bool) ([]SnapshotEntry, error) {
	names, err := s.fs.List()
	if err != nil {
		return nil, err
	}
	type cand struct {
		gen  uint64
		name string
	}
	var cands []cand
	maxGen := uint64(0)
	for _, name := range names {
		g, tmp, ok := parseSnapName(name)
		if !ok || tmp {
			continue // unpublished temp files never count
		}
		cands = append(cands, cand{g, name})
		if g > maxGen {
			maxGen = g
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gen > cands[j].gen })

	var kept []SnapshotEntry
	var lastErr error
	loaded := false
	for _, c := range cands {
		entries, err := s.recoverOne(c.name, keep)
		if err != nil {
			lastErr = fmt.Errorf("kvstore: recover %s: %w", c.name, err)
			continue
		}
		kept = entries
		loaded = true
		break
	}
	if !loaded && lastErr != nil {
		// Every generation failed validation: start empty but surface
		// what was wrong with the newest one.
		lastErr = fmt.Errorf("%w (starting empty)", lastErr)
	} else {
		lastErr = nil
	}

	s.mu.Lock()
	s.entries = make(map[string]*SnapshotEntry, len(kept))
	maxSeq := uint64(0)
	for i := range kept {
		e := kept[i]
		s.entries[key(&e)] = &e
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
	}
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	if maxGen > s.gen {
		s.gen = maxGen
	}
	s.mu.Unlock()
	return kept, lastErr
}

// recoverOne validates and loads one snapshot file, fetching only the
// payloads keep selects.
func (s *Store) recoverOne(name string, keep func(IndexRecord) bool) ([]SnapshotEntry, error) {
	f, err := s.fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadSnapshotIndex(f)
	if err != nil {
		return nil, err
	}
	var out []SnapshotEntry
	for _, rec := range recs {
		if !rec.Named() {
			continue
		}
		if keep != nil && !keep(rec) {
			continue
		}
		e, err := ReadSnapshotEntry(f, rec)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
