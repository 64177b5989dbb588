package kvstore

import (
	"testing"

	"repro/internal/model"
)

func newTestStore() (*SimFS, *Store) {
	fs := NewSimFS(nil, model.CostModel{})
	return fs, NewStore(fs)
}

func TestStoreCommitRecover(t *testing.T) {
	fs, s := newTestStore()
	for _, e := range testEntries() {
		s.Put(e)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// A fresh store over the same disk sees only the named entries.
	s2 := NewStore(fs)
	kept, err := s2.Recover(nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(kept) != 2 {
		t.Fatalf("recovered %d entries, want 2 named", len(kept))
	}
	if kept[0].Path != "fam-0" || kept[1].Path != "fam-1" {
		t.Fatalf("recovered paths %q, %q", kept[0].Path, kept[1].Path)
	}
	if kept[0].Seq >= kept[1].Seq {
		t.Fatalf("recovered entries not seq-sorted: %d, %d", kept[0].Seq, kept[1].Seq)
	}

	// Puts after recovery must not collide with recovered seqs, and the
	// next commit supersedes the old generation.
	s2.Put(SnapshotEntry{Path: "fam-2", Owner: "admin", Recs: []Rec{{Tok: 1, Pos: 0, KV: 7}}})
	if err := s2.Commit(); err != nil {
		t.Fatalf("second commit: %v", err)
	}
	names, _ := fs.List()
	if len(names) != 1 {
		t.Fatalf("old generations not cleaned up: %v", names)
	}
	s3 := NewStore(fs)
	kept, err = s3.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("recovered %d entries after second commit, want 3", len(kept))
	}
}

func TestStorePutReplacesByPath(t *testing.T) {
	_, s := newTestStore()
	s.Put(SnapshotEntry{Path: "fam-0", Recs: []Rec{{Tok: 1}}})
	s.Put(SnapshotEntry{Path: "fam-0", Recs: []Rec{{Tok: 1}, {Tok: 2, Pos: 1}}})
	if len(s.entries) != 1 {
		t.Fatalf("store holds %d entries, want 1 (replace by path)", len(s.entries))
	}
	if n := len(s.entries["fam-0"].Recs); n != 2 {
		t.Fatalf("store holds %d tokens, want the replacement's 2", n)
	}
}

func TestStoreDrop(t *testing.T) {
	_, s := newTestStore()
	k := s.Put(SnapshotEntry{Path: "fam-0", Recs: []Rec{{Tok: 1}}})
	s.Drop(k)
	if len(s.entries) != 0 {
		t.Fatalf("store holds %d entries after drop", len(s.entries))
	}
}

func TestStoreRecoverFilter(t *testing.T) {
	fs, s := newTestStore()
	for _, e := range testEntries() {
		s.Put(e)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(fs)
	// Index-only eligibility: keep only small prefixes.
	kept, err := s2.Recover(func(rec IndexRecord) bool { return rec.Tokens <= 20 })
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0].Path != "fam-1" {
		t.Fatalf("filter kept %d entries (%+v), want just fam-1", len(kept), kept)
	}
	// The skipped entry is gone from the next commit (GC).
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(fs)
	kept, err = s3.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 {
		t.Fatalf("skipped entries survived the commit: %d", len(kept))
	}
}

// TestStoreCrashRecovery is the crash-recovery contract: a crash before
// SyncDir drops unsynced writes and reverts unsynced renames, and the
// loader falls back to the last durable snapshot.
func TestStoreCrashRecovery(t *testing.T) {
	fs, s := newTestStore()
	s.Put(testEntries()[0])
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Hand-run the first half of a second publish, crashing before
	// SyncDir: the rename is in the namespace but not durable.
	data, err := EncodeSnapshot(s.snapshotLocked())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("snap-00000002.fmc1.tmp")
	f.WriteAt(data, 0)
	f.Sync()
	fs.Rename("snap-00000002.fmc1.tmp", "snap-00000002.fmc1")
	fs.Crash()

	names, _ := fs.List()
	for _, n := range names {
		if n == "snap-00000002.fmc1" {
			t.Fatal("unsynced rename survived the crash")
		}
	}
	s2 := NewStore(fs)
	kept, err := s2.Recover(nil)
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	if len(kept) != 1 || kept[0].Path != "fam-0" {
		t.Fatalf("recovered %+v, want the durable generation's fam-0", kept)
	}

	// Torn write: the rename was made durable but the contents were
	// never synced — the newer generation is garbage and recovery must
	// fall back to the older one.
	f2, _ := fs.Create("snap-00000003.fmc1.tmp")
	f2.WriteAt(data, 0) // no Sync
	fs.Rename("snap-00000003.fmc1.tmp", "snap-00000003.fmc1")
	fs.SyncDir()
	fs.Crash()
	s3 := NewStore(fs)
	kept, err = s3.Recover(nil)
	if err != nil {
		t.Fatalf("recover should fall back, got %v", err)
	}
	if len(kept) != 1 || kept[0].Path != "fam-0" {
		t.Fatalf("fallback recovered %+v, want fam-0", kept)
	}
}

// TestStoreRecoverAllCorrupt starts empty (with the error surfaced) when
// every generation is damaged.
func TestStoreRecoverAllCorrupt(t *testing.T) {
	fs, s := newTestStore()
	s.Put(testEntries()[0])
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("snap-00000001.fmc1")
	f.WriteAt([]byte{0xff}, 20) // corrupt the index checksum field
	f.Sync()
	fs.SyncDir()

	s2 := NewStore(fs)
	kept, err := s2.Recover(nil)
	if err == nil {
		t.Fatal("recover of corrupt-only disk reported success")
	}
	if len(kept) != 0 || len(s2.entries) != 0 {
		t.Fatalf("recover of corrupt-only disk kept %d entries", len(kept))
	}
	// The store still works going forward.
	s2.Put(SnapshotEntry{Path: "fam-9", Recs: []Rec{{Tok: 3}}})
	if err := s2.Commit(); err != nil {
		t.Fatalf("commit after failed recover: %v", err)
	}
}
