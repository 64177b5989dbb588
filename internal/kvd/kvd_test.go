package kvd_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// newFS returns a file system with a GPU tier of gpuTokens tokens and a
// 16x larger host tier, at 1 KiB per token so transfer costs are tiny
// but nonzero.
func newFS(gpuTokens int) *kvfs.FS {
	const bpt = 1 << 10
	return kvfs.NewFS(kvfs.Config{
		PageTokens:    16,
		GPUBytes:      int64(gpuTokens) * bpt,
		HostBytes:     int64(gpuTokens) * bpt * 16,
		BytesPerToken: bpt,
	})
}

func newDaemon(t *testing.T, clk *simclock.Clock, fs *kvfs.FS, cfg kvd.Config) *kvd.Daemon {
	t.Helper()
	d, err := kvd.New(clk, fs, model.A100Llama13B(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fill appends n tokens to f at the next positions.
func fill(t *testing.T, f *kvfs.File, n int) {
	t.Helper()
	base := f.Len()
	toks := make([]token.ID, n)
	pos := make([]int, n)
	for i := range toks {
		toks[i] = token.ID(i + 1)
		pos[i] = base + i
	}
	if _, err := f.Append(toks, pos); err != nil {
		t.Fatalf("append %d tokens: %v", n, err)
	}
}

// TestZeroConfigIsLRU checks that every configuration runs a daemon: the
// zero Config is lru, Stats echoes the 0.90 / 0.75 watermark constants,
// and any other policy name — "none" and the removed "lfu" and
// "cost-aware" included — is an error.
func TestZeroConfigIsLRU(t *testing.T) {
	d, err := kvd.New(simclock.New(), newFS(64), model.A100Llama13B(), kvd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Policy != "lru" || st.HighWater != 0.90 || st.LowWater != 0.75 {
		t.Fatalf("zero config = %s at %v / %v, want lru at 0.9 / 0.75", st.Policy, st.HighWater, st.LowWater)
	}
	if _, err := kvd.New(simclock.New(), newFS(64), model.A100Llama13B(), kvd.Config{Policy: "lru"}); err != nil {
		t.Fatalf("lru rejected: %v", err)
	}
	for _, policy := range []string{"none", "nope", "lfu", "cost-aware"} {
		if _, err := kvd.New(simclock.New(), newFS(64), model.A100Llama13B(), kvd.Config{Policy: policy}); err == nil {
			t.Fatalf("policy %q accepted", policy)
		}
	}
}

// touch is one instant of an evictionOrder script: at that virtual
// time the listed files are touched, in the listed order.
type touch struct {
	at    time.Duration
	files []int
}

// evictionOrder tracks n 32-token files at time 0, plays touches (in
// ascending time), then reclaims one file's worth at a time and returns
// the files' indices in the order they were offloaded.
func evictionOrder(t *testing.T, n int, touches []touch) []int {
	t.Helper()
	clk := simclock.New()
	fs := newFS(4096) // far below the high-water mark: each reclaim frees only its need
	d := newDaemon(t, clk, fs, kvd.Config{})
	var order []int
	files := make([]*kvfs.File, n)
	drive(t, clk, func() {
		for i := range files {
			i := i
			files[i] = fs.CreateAnon("u")
			fill(t, files[i], 32)
			d.Track(files[i], 1, func(kvd.Event) { order = append(order, i) })
		}
		for _, tc := range touches {
			if err := clk.Sleep(tc.at - clk.Now()); err != nil {
				t.Error(err)
				return
			}
			for _, i := range tc.files {
				d.Touch(files[i])
			}
		}
		for range files {
			if freed := d.Reclaim(32); freed != 32 {
				t.Errorf("reclaim freed %d tokens, want one file's 32", freed)
			}
		}
	})
	return order
}

// TestPolicyRanking pins the daemon's one eviction order: least recently
// accessed first, whatever the registration order.
func TestPolicyRanking(t *testing.T) {
	ms := time.Millisecond
	// 0: touched at 90 ms; 1: at 10 ms (long idle); 2: at 60 ms.
	got := evictionOrder(t, 3, []touch{{10 * ms, []int{1}}, {60 * ms, []int{2}}, {90 * ms, []int{0}}})
	if want := []int{1, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("eviction order %v, want %v", got, want)
	}
	// Exact ties fall back to registration order, deterministically: both
	// files are last touched at 50 ms, the later-registered one first, and
	// the earlier-registered one still goes first.
	got = evictionOrder(t, 2, []touch{{50 * ms, []int{1, 0}}})
	if want := []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tie broken as %v, want registration order %v", got, want)
	}
}

func TestMaybeReclaimWatermarks(t *testing.T) {
	clk := simclock.New()
	fs := newFS(320) // 20 pages: reclaim from 18 (0.90) down to 15 (0.75)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})

	// Cold files of 64 tokens (4 pages) each.
	add := func() {
		f := fs.CreateAnon("u")
		fill(t, f, 64)
		d.Track(f, 1, nil)
	}
	for i := 0; i < 4; i++ {
		add()
	}
	// 16/20 pages is below the high-water mark: reclaim is a no-op.
	if freed := d.MaybeReclaim(); freed != 0 {
		t.Fatalf("reclaim at pressure %v freed %d", d.Pressure(), freed)
	}
	add()
	if p := d.Pressure(); p != 1 {
		t.Fatalf("pressure = %v, want 1", p)
	}
	// 5 pages over the low-water mark: two files go.
	freed := d.MaybeReclaim()
	if st := fs.Stats(); freed != 128 || st.GPUPages != 12 {
		t.Fatalf("reclaim freed %d tokens to %d gpu pages, want 128 to 12 (under low water 15)", freed, st.GPUPages)
	}
	// Below the high-water mark reclaim is a no-op.
	if again := d.MaybeReclaim(); again != 0 {
		t.Fatalf("reclaim below high water freed %d", again)
	}
	ds := d.Stats()
	if ds.Offloads == 0 || ds.OffloadedTokens != int64(freed) || ds.Reclaims != 1 {
		t.Fatalf("stats = %+v", ds)
	}
}

// TestReclaimStopsAtFullHostTier: nothing frees host pages inside a
// reclaim pass, so the pass ends at the first offload the host tier
// refuses instead of failing once more on every remaining candidate.
func TestReclaimStopsAtFullHostTier(t *testing.T) {
	const bpt = 1 << 10
	fs := kvfs.NewFS(kvfs.Config{
		PageTokens:    16,
		GPUBytes:      256 * bpt, // 16 pages
		HostBytes:     96 * bpt,  // 6 pages
		BytesPerToken: bpt,
	})
	d := newDaemon(t, simclock.New(), fs, kvd.Config{Policy: "lru"})
	for i := 0; i < 4; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 64)
		d.Track(f, 1, nil)
	}
	// The first file moves whole, the second part-way; then host is full.
	if freed := d.Reclaim(1 << 20); freed != 96 {
		t.Fatalf("freed %d tokens, want the host tier's 96", freed)
	}
	if n := fs.Stats().OOMErrors; n != 1 {
		t.Fatalf("%d refused host allocations, want the one that ended the pass", n)
	}
}

func TestLockedPinnedAndUntrackedNeverOffloaded(t *testing.T) {
	clk := simclock.New()
	fs := newFS(256)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})

	locked := fs.CreateAnon("u")
	fill(t, locked, 64)
	if err := locked.TryLock("u"); err != nil {
		t.Fatal(err)
	}
	d.Track(locked, 1, nil)

	pinned := fs.CreateAnon("u")
	fill(t, pinned, 64)
	d.Track(pinned, 1, nil)
	pinned.Pin()

	untracked := fs.CreateAnon("u")
	fill(t, untracked, 64)

	cold := fs.CreateAnon("u")
	fill(t, cold, 64)
	d.Track(cold, 2, nil)

	if freed := d.Reclaim(1 << 20); freed != 64 {
		t.Fatalf("freed %d tokens, want only the cold file's 64", freed)
	}
	if !locked.GPUResident() || !pinned.GPUResident() || !untracked.GPUResident() {
		t.Fatalf("protected file offloaded: locked=%v pinned=%v untracked=%v",
			locked.GPUResident(), pinned.GPUResident(), untracked.GPUResident())
	}
	if cold.GPUResident() {
		t.Fatal("cold file still resident")
	}
	if n := d.Preempt(pinned); n != 0 || !pinned.GPUResident() {
		t.Fatalf("preempt swapped out %d tokens of a pinned file", n)
	}

	// Unpinning and unlocking makes both eligible.
	pinned.Unpin()
	if err := locked.Unlock("u"); err != nil {
		t.Fatal(err)
	}
	if freed := d.Reclaim(1 << 20); freed != 128 {
		t.Fatalf("freed %d tokens after unpin/unlock, want 128", freed)
	}
	if untracked.GPUResident() != true {
		t.Fatal("untracked file offloaded")
	}
}

func TestRestoreLedgerAndNotify(t *testing.T) {
	clk := simclock.New()
	fs := newFS(128)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})

	var events []kvd.Event
	f := fs.CreateAnon("u")
	fill(t, f, 64)
	d.Track(f, 1, func(ev kvd.Event) { events = append(events, ev) })

	if freed := d.Reclaim(64); freed != 64 {
		t.Fatalf("freed %d", freed)
	}
	// A restore of a file the daemon did not offload is not charged.
	other := fs.CreateAnon("u")
	fill(t, other, 16)
	d.Track(other, 1, nil)
	d.NoteRestore(other, 16, time.Millisecond)
	if st := d.Stats(); st.Restores != 0 {
		t.Fatalf("unattributed restore charged: %+v", st)
	}

	// The daemon-offloaded file's restore lands in the ledger once.
	if n, err := f.Restore(); err != nil || n != 64 {
		t.Fatalf("restore: %d, %v", n, err)
	}
	d.NoteRestore(f, 64, 2*time.Millisecond)
	d.NoteRestore(f, 64, 2*time.Millisecond) // not offloaded anymore: ignored
	st := d.Stats()
	if st.Restores != 1 || st.RestoredTokens != 64 || st.RestoredCost != 2*time.Millisecond {
		t.Fatalf("ledger = %+v", st)
	}
	if len(events) != 2 || events[0].Phase != "offload" || events[1].Phase != "restore" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Tokens != 64 {
		t.Fatalf("offload event = %+v", events[0])
	}
}

func TestReleaseProcessOrphansFilesAndFreesPark(t *testing.T) {
	clk := simclock.New()
	fs := newFS(128)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})

	var events int
	leaked := fs.CreateAnon("dead")
	fill(t, leaked, 32)
	d.Track(leaked, 1, func(kvd.Event) { events++ })
	gone := fs.CreateAnon("dead")
	fill(t, gone, 16)
	d.Track(gone, 1, nil)
	if err := gone.Remove(); err != nil {
		t.Fatal(err)
	}
	live := fs.CreateAnon("live")
	fill(t, live, 32)
	d.Track(live, 2, nil)

	d.ReleaseProcess(1)
	// The leaked file stays tracked as an orphaned eviction candidate
	// (reaped without notifying anyone); the removed one is dropped.
	if st := d.Stats(); st.Tracked != 2 {
		t.Fatalf("tracked = %d, want leaked + live", st.Tracked)
	}
	if freed := d.Reclaim(32); freed != 32 {
		t.Fatalf("freed %d, want the leaked file's 32", freed)
	}
	if leaked.GPUResident() {
		t.Fatal("leaked orphan not reaped first")
	}
	if events != 0 {
		t.Fatalf("released process still notified %d times", events)
	}
}

// TestRemovedFileLeavesAtRemoval: KVFS's removal notice takes a tracked
// file out of the daemon at once, with no Track, reclaim or Stats call in
// between, and releases its owner's notify closure with it.
func TestRemovedFileLeavesAtRemoval(t *testing.T) {
	clk := simclock.New()
	fs := newFS(128)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})
	var events int
	count := func(kvd.Event) { events++ }
	f := fs.CreateAnon("u")
	fill(t, f, 16)
	d.Track(f, 1, count)
	d.NoteDiskLoad(f, 16, 0) // reaches the owner only while f is tracked
	if err := f.Remove(); err != nil {
		t.Fatal(err)
	}
	d.NoteDiskLoad(f, 16, 0)
	d.Track(f, 1, count) // a removed file is not tracked again
	d.NoteDiskLoad(f, 16, 0)
	if events != 1 {
		t.Fatalf("owner heard %d events, want 1 (before the removal only)", events)
	}
	if st := d.Stats(); st.Tracked != 0 {
		t.Fatalf("tracked = %d after the removal, want 0", st.Tracked)
	}
}

// TestTrackRacesRemoval: files tracked while other goroutines remove them
// all leave the daemon, whichever of Track and the removal notice runs
// first.
func TestTrackRacesRemoval(t *testing.T) {
	fs := newFS(1 << 14)
	d := newDaemon(t, simclock.New(), fs, kvd.Config{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := fs.CreateAnon("u")
				removed := make(chan struct{})
				go func() {
					defer close(removed)
					f.Remove()
				}()
				d.Track(f, 1, nil)
				<-removed
			}
		}()
	}
	wg.Wait()
	if n := d.Stats().Tracked; n != 0 {
		t.Fatalf("tracked = %d after every file was removed, want 0", n)
	}
}

func TestTrackedEntriesGCWithoutPressure(t *testing.T) {
	// Files created and removed while GPU usage never crosses the
	// high-water mark must not accumulate in the daemon.
	clk := simclock.New()
	fs := newFS(16 << 10)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})
	for i := 0; i < 300; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 16)
		d.Track(f, i+1, func(kvd.Event) {})
		if err := f.Remove(); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Tracked != 0 {
		t.Fatalf("tracked = %d after all files removed, want 0", st.Tracked)
	}
}
