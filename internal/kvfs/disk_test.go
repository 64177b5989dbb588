package kvfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/model"
)

// diskFS returns a tiny three-tier FS plus its DiskTier over an
// unbilled SimFS-backed store.
func diskFS(pageTokens, gpuPages, hostPages, diskPages int) (*FS, *DiskTier) {
	fs := NewFS(Config{
		PageTokens:    pageTokens,
		GPUBytes:      int64(gpuPages) * int64(pageTokens),
		HostBytes:     int64(hostPages) * int64(pageTokens),
		DiskBytes:     int64(diskPages) * int64(pageTokens),
		BytesPerToken: 1,
	})
	store := kvstore.NewStore(kvstore.NewSimFS(nil, model.CostModel{}))
	return fs, NewDiskTier(fs, store)
}

// committed commits dt and returns the entries its store recovers.
func committed(t *testing.T, dt *DiskTier) []kvstore.SnapshotEntry {
	t.Helper()
	if err := dt.Commit(); err != nil {
		t.Fatal(err)
	}
	entries, err := dt.Store().Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestSpillPromoteRoundTrip(t *testing.T) {
	fs, dt := diskFS(4, 100, 100, 100)
	f, err := fs.Create("/kv/prefix", "u", ModeShared)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, f, 10, 0)
	want := f.Tail()

	if _, err := f.Offload(); err != nil {
		t.Fatal(err)
	}
	n, err := dt.Spill(f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("spilled %d tokens, want 10", n)
	}
	st := fs.Stats()
	if st.HostPages != 0 || st.GPUPages != 0 {
		t.Fatalf("live pages after spill = gpu %d host %d, want 0/0", st.GPUPages, st.HostPages)
	}
	if st.DiskPages != 3 {
		t.Fatalf("disk pages = %d, want 3", st.DiskPages)
	}
	if _, _, disk := f.ResidentTokens(); disk != 10 {
		t.Fatalf("disk-resident tokens = %d, want 10", disk)
	}
	if f.GPUResident() {
		t.Fatal("spilled file claims GPU residency")
	}

	back, err := f.PromoteDisk()
	if err != nil {
		t.Fatal(err)
	}
	if back != 10 {
		t.Fatalf("promoted %d tokens, want 10", back)
	}
	if !f.GPUResident() {
		t.Fatal("not GPU-resident after promote")
	}
	if f.Tail() != want {
		t.Fatal("tail changed across spill/promote")
	}
	// The durable copy stays: promote does not release the disk
	// reservation, and the file can append again.
	if st := fs.Stats(); st.DiskPages != 3 {
		t.Fatalf("disk pages after promote = %d, want 3", st.DiskPages)
	}
	mustAppend(t, f, 3, 10)
}

func TestDiskCapacity(t *testing.T) {
	fs, dt := diskFS(4, 100, 100, 2) // 8 tokens of disk
	f := fs.CreateAnon("u")
	mustAppend(t, f, 12, 0) // needs 3 pages
	if err := dt.Put(f); !errors.Is(err, ErrNoDisk) {
		t.Fatalf("put over capacity = %v, want ErrNoDisk", err)
	}
	// All-or-nothing: the failed put must not leak partial reservations.
	if st := fs.Stats(); st.DiskPages != 0 {
		t.Fatalf("disk pages after failed put = %d, want 0", st.DiskPages)
	}
	small := fs.CreateAnon("u")
	mustAppend(t, small, 8, 0)
	if err := dt.Put(small); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.DiskPages != 2 {
		t.Fatalf("disk pages = %d, want 2", st.DiskPages)
	}
}

func TestPutReplacesAndResizes(t *testing.T) {
	fs, dt := diskFS(4, 100, 100, 100)
	f, _ := fs.Create("/kv/a", "u", ModePrivate)
	mustAppend(t, f, 12, 0)
	if err := dt.Put(f); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.DiskPages != 3 {
		t.Fatalf("disk pages = %d, want 3", st.DiskPages)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := dt.Put(f); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.DiskPages != 1 {
		t.Fatalf("disk pages after shrink = %d, want 1", st.DiskPages)
	}
	entries := committed(t, dt)
	if len(entries) != 1 {
		t.Fatalf("store entries = %d, want 1 (replaced by path)", len(entries))
	}
	if n := len(entries[0].Recs); n != 4 {
		t.Fatalf("store tokens = %d, want 4", n)
	}
}

// failingVFS is a store device on which every snapshot write fails.
type failingVFS struct{ kvstore.VFS }

func (failingVFS) Create(string) (kvstore.File, error) { return nil, errors.New("device failed") }

// TestForgetReleasesDisk: a commit forgets a removed file's disk record —
// store entry, disk reservation and pending spill — before it publishes,
// so a failed publish rolls back only the spills of live files.
func TestForgetReleasesDisk(t *testing.T) {
	fs := NewFS(Config{PageTokens: 4, GPUBytes: 400, HostBytes: 400, DiskBytes: 400, BytesPerToken: 1})
	dt := NewDiskTier(fs, kvstore.NewStore(failingVFS{kvstore.NewSimFS(nil, model.CostModel{})}))
	var rolled []string
	dt.SetSpillRollback(func(f *File, tokens int) {
		rolled = append(rolled, fmt.Sprintf("%s:%d", f.Path(), tokens))
	})
	spill := func(path string) *File {
		f, err := fs.Create(path, "u", ModePrivate)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, f, 10, 0)
		if _, err := f.Offload(); err != nil {
			t.Fatal(err)
		}
		if n, err := dt.Spill(f); err != nil || n != 10 {
			t.Fatalf("spill %s = %d, %v; want 10", path, n, err)
		}
		return f
	}
	a, b := spill("/kv/a"), spill("/kv/b")
	if err := a.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(); err == nil {
		t.Fatal("commit on a failing device succeeded")
	}
	if st := fs.Stats(); st.DiskPages != 3 {
		t.Fatalf("disk pages after forget = %d, want 3 (b's record only)", st.DiskPages)
	}
	if _, ok := dt.recs[a]; ok {
		t.Fatal("removed file's record survived the commit")
	}
	if _, ok := dt.pending[a]; ok {
		t.Fatal("removed file's spill still pending")
	}
	if len(rolled) != 1 || rolled[0] != "/kv/b:10" {
		t.Fatalf("rolled back %v, want [/kv/b:10]", rolled)
	}
	if _, host, disk := b.ResidentTokens(); host != 10 || disk != 0 {
		t.Fatalf("b after rollback = host %d disk %d, want 10/0", host, disk)
	}
}

func TestCommitGCsRemovedFiles(t *testing.T) {
	fs, dt := diskFS(4, 100, 100, 100)
	f, _ := fs.Create("/kv/a", "u", ModePrivate)
	mustAppend(t, f, 10, 0)
	if err := dt.Put(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.DiskPages != 0 {
		t.Fatalf("disk pages after GC commit = %d, want 0", st.DiskPages)
	}
	if entries := committed(t, dt); len(entries) != 0 {
		t.Fatal("removed file still in store after commit")
	}
}

// TestRemovedRecordsLeaveAtNextCommit: files removed between two commits
// keep their durable records and disk reservations until the second
// Commit, which drops them in removal order; a removed file never Put
// leaves no trace, and a removed file cannot be Put.
func TestRemovedRecordsLeaveAtNextCommit(t *testing.T) {
	fs, dt := diskFS(4, 100, 100, 100)
	put := func(path string) *File {
		f, err := fs.Create(path, "u", ModePrivate)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, f, 10, 0) // three pages
		if err := dt.Put(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := put("/kv/a"), put("/kv/b")
	put("/kv/c")
	if entries := committed(t, dt); len(entries) != 3 {
		t.Fatalf("first commit stored %d entries, want 3", len(entries))
	}
	for _, f := range []*File{b, a, fs.CreateAnon("u")} {
		if err := f.Remove(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.Put(a); !errors.Is(err, ErrRemoved) {
		t.Fatalf("Put of a removed file = %v, want ErrRemoved", err)
	}
	if st := fs.Stats(); st.DiskPages != 9 {
		t.Fatalf("disk pages after the removals = %d, want 9 (released at Commit, not at removal)", st.DiskPages)
	}
	if len(dt.dead) != 2 || dt.dead[0] != b || dt.dead[1] != a {
		t.Fatalf("dead = %v, want b then a", dt.dead)
	}
	entries := committed(t, dt)
	if len(entries) != 1 || entries[0].Path != "/kv/c" {
		t.Fatalf("second commit stored %d entries, want /kv/c alone", len(entries))
	}
	if st := fs.Stats(); st.DiskPages != 3 {
		t.Fatalf("disk pages after the second commit = %d, want 3", st.DiskPages)
	}
	if len(dt.recs) != 1 || len(dt.dead) != 0 {
		t.Fatalf("after the commit: %d records, %d dead, want 1 and 0", len(dt.recs), len(dt.dead))
	}
}

// TestPutRacesRemoval: a file checkpointed while another goroutine removes
// it leaves no record behind the next Commit, whichever runs first.
func TestPutRacesRemoval(t *testing.T) {
	fs, dt := diskFS(4, 1<<12, 1<<12, 1<<12)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f := fs.CreateAnon("u")
				if _, err := f.Append(seq(4, 0)); err != nil {
					t.Error(err)
					return
				}
				removed := make(chan struct{})
				go func() {
					defer close(removed)
					f.Remove()
				}()
				dt.Put(f) // ErrRemoved when the removal came first
				<-removed
			}
		}()
	}
	wg.Wait()
	if err := dt.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, pages := len(dt.recs), fs.Stats().DiskPages; n != 0 || pages != 0 {
		t.Fatalf("after the commit: %d records, %d disk pages, want 0 and 0", n, pages)
	}
}

func TestImportRecoversNamedFile(t *testing.T) {
	// First incarnation: build, spill, commit.
	vfs := kvstore.NewSimFS(nil, model.CostModel{})
	fs1 := NewFS(Config{PageTokens: 4, GPUBytes: 400, HostBytes: 400, DiskBytes: 400, BytesPerToken: 1})
	dt1 := NewDiskTier(fs1, kvstore.NewStore(vfs))
	f, _ := fs1.Create("/kv/sys", "admin", ModeShared)
	mustAppend(t, f, 10, 0)
	wantTail := f.Tail()
	wantRoot := f.Root()
	if err := dt1.Put(f); err != nil {
		t.Fatal(err)
	}
	if err := dt1.Commit(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same (simulated) disk.
	fs2 := NewFS(Config{PageTokens: 4, GPUBytes: 400, HostBytes: 400, DiskBytes: 400, BytesPerToken: 1})
	store2 := kvstore.NewStore(vfs)
	dt2 := NewDiskTier(fs2, store2)
	entries, err := store2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("recovered %d entries, want 1", len(entries))
	}
	g, err := dt2.Import(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.Path() != "/kv/sys" || g.Owner() != "admin" || g.Mode() != ModeShared {
		t.Fatalf("imported identity %s/%s/%d", g.Path(), g.Owner(), g.Mode())
	}
	if g.Tail() != wantTail || g.Root() != wantRoot {
		t.Fatal("imported context hashes differ from original")
	}
	if g.GPUResident() {
		t.Fatal("imported file should be disk-resident")
	}
	if st := fs2.Stats(); st.DiskPages != 3 || st.GPUPages != 0 {
		t.Fatalf("pages after import = gpu %d disk %d, want 0/3", st.GPUPages, st.DiskPages)
	}
	if r := dt2.recs[g]; r == nil || r.pages != 3 {
		t.Fatalf("tier tracks %+v, want a record of 3 pages", r)
	}

	// Promote and verify the file is fully usable again.
	if n, err := g.PromoteDisk(); err != nil || n != 10 {
		t.Fatalf("promote = %d, %v", n, err)
	}
	mustAppend(t, g, 2, 10)

	// Importing the same path twice fails and leaks nothing.
	if _, err := dt2.Import(entries[0]); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate import = %v, want ErrExist", err)
	}
	if st := fs2.Stats(); st.DiskPages != 3 {
		t.Fatalf("disk pages after failed import = %d, want 3", st.DiskPages)
	}
}

func TestImportApproxFile(t *testing.T) {
	vfs := kvstore.NewSimFS(nil, model.CostModel{})
	fs1 := NewFS(Config{PageTokens: 4, GPUBytes: 400, HostBytes: 400, DiskBytes: 400, BytesPerToken: 1})
	dt1 := NewDiskTier(fs1, kvstore.NewStore(vfs))
	a := fs1.CreateAnon("u")
	mustAppend(t, a, 5, 0)
	b := fs1.CreateAnon("u")
	mustAppend(t, b, 5, 5)
	m, err := fs1.Merge("u", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs1.Link(m, "/kv/merged", "u"); err != nil {
		t.Fatal(err)
	}
	wantTail := m.Tail()
	if err := dt1.Put(m); err != nil {
		t.Fatal(err)
	}
	if err := dt1.Commit(); err != nil {
		t.Fatal(err)
	}

	fs2 := NewFS(Config{PageTokens: 4, GPUBytes: 400, HostBytes: 400, DiskBytes: 400, BytesPerToken: 1})
	store2 := kvstore.NewStore(vfs)
	dt2 := NewDiskTier(fs2, store2)
	entries, err := store2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dt2.Import(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !g.Approx() {
		t.Fatal("approx flag lost across snapshot round trip")
	}
	if g.Tail() != wantTail {
		t.Fatal("approximate tail differs after import")
	}
}
