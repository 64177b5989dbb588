package kvd_test

import (
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
	if !d.Enabled() {
		t.Fatal("daemon not enabled")
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

func TestDisabledConfig(t *testing.T) {
	for _, policy := range []string{"", "none"} {
		d, err := kvd.New(simclock.New(), newFS(64), model.A100Llama13B(), kvd.Config{Policy: policy})
		if err != nil || d != nil {
			t.Fatalf("Policy=%q: got (%v, %v), want disabled nil daemon", policy, d, err)
		}
	}
	// The nil daemon is a safe no-op everywhere.
	var nd *kvd.Daemon
	if nd.Enabled() || nd.Pressure() != 0 || nd.Reclaim(100) != 0 {
		t.Fatal("nil daemon not inert")
	}
	nd.Touch(nil)
	nd.Pin(nil)
	nd.Unpin(nil)
	if st := nd.Stats(); st.Policy != "none" {
		t.Fatalf("nil daemon policy = %q", st.Policy)
	}
	if _, err := kvd.New(simclock.New(), newFS(64), model.A100Llama13B(), kvd.Config{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := kvd.PolicyNames()
	want := []string{"cost-aware", "lfu", "lru"}
	if len(names) != len(want) {
		t.Fatalf("policies = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("policies = %v, want %v", names, want)
		}
		p, err := kvd.NewPolicy(n)
		if err != nil || p.Name() != n {
			t.Fatalf("NewPolicy(%q) = %v, %v", n, p, err)
		}
	}
}

func TestPolicyRanking(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	now := ms(100)
	cands := []kvd.FileInfo{
		// 0: recently used, small, touched twice.
		{Seq: 1, LastAccess: ms(90), Accesses: 2, Tokens: 32,
			RestoreCost: ms(1), RecomputeCost: ms(10)},
		// 1: long idle, huge (expensive to bring back), touched often.
		{Seq: 2, LastAccess: ms(10), Accesses: 9, Tokens: 4096,
			RestoreCost: ms(160), RecomputeCost: ms(1200)},
		// 2: medium idle, small and cheap, touched once.
		{Seq: 3, LastAccess: ms(60), Accesses: 1, Tokens: 32,
			RestoreCost: ms(1), RecomputeCost: ms(10)},
	}
	cases := []struct {
		policy kvd.Policy
		want   []int
	}{
		// LRU: pure recency — the long-idle giant goes first.
		{kvd.LRU{}, []int{1, 2, 0}},
		// LFU: pure frequency, recency tie-break.
		{kvd.LFU{}, []int{2, 0, 1}},
		// Cost-aware: idle per unit of re-access cost. The giant's 160ms
		// restore keeps it resident despite being idlest; the cheap files
		// go first, older first.
		{kvd.CostAware{}, []int{2, 0, 1}},
	}
	for _, c := range cases {
		got := c.policy.Rank(now, cands)
		if len(got) != len(c.want) {
			t.Fatalf("%s: rank = %v", c.policy.Name(), got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: rank = %v, want %v", c.policy.Name(), got, c.want)
			}
		}
	}
	// Exact ties fall back to registration order, deterministically.
	tied := []kvd.FileInfo{
		{Seq: 7, LastAccess: ms(50), Accesses: 3, Tokens: 16, RestoreCost: ms(1), RecomputeCost: ms(5)},
		{Seq: 4, LastAccess: ms(50), Accesses: 3, Tokens: 16, RestoreCost: ms(1), RecomputeCost: ms(5)},
	}
	for _, p := range []kvd.Policy{kvd.LRU{}, kvd.LFU{}, kvd.CostAware{}} {
		if got := p.Rank(now, tied); got[0] != 1 {
			t.Fatalf("%s: tie not broken by seq: %v", p.Name(), got)
		}
	}
}

func TestMaybeReclaimWatermarks(t *testing.T) {
	clk := simclock.New()
	fs := newFS(256) // 16 pages
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru", HighWater: 0.75, LowWater: 0.5})

	// Four cold files of 64 tokens (4 pages) each: 16/16 pages used.
	var files []*kvfs.File
	for i := 0; i < 4; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 64)
		d.Track(f, 1, nil)
		files = append(files, f)
	}
	if p := d.Pressure(); p != 1 {
		t.Fatalf("pressure = %v, want 1", p)
	}
	freed := d.MaybeReclaim()
	if freed == 0 {
		t.Fatal("no reclaim above high water")
	}
	st := fs.Stats()
	if st.GPUPages > 8 {
		t.Fatalf("gpu pages = %d after reclaim, want <= low water 8", st.GPUPages)
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

func TestLockedPinnedAndUntrackedNeverOffloaded(t *testing.T) {
	clk := simclock.New()
	fs := newFS(256)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru", HighWater: 0.5, LowWater: 0.1})

	locked := fs.CreateAnon("u")
	fill(t, locked, 64)
	if err := locked.TryLock("u"); err != nil {
		t.Fatal(err)
	}
	d.Track(locked, 1, nil)

	pinned := fs.CreateAnon("u")
	fill(t, pinned, 64)
	d.Track(pinned, 1, nil)
	d.Pin(pinned)

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

	// Unpinning and unlocking makes both eligible.
	d.Unpin(pinned)
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
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "cost-aware", HighWater: 0.5, LowWater: 0.1})

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
	if events[0].Tokens != 64 || events[0].Policy != "cost-aware" {
		t.Fatalf("offload event = %+v", events[0])
	}
}

func TestReleaseProcessOrphansFilesAndFreesPark(t *testing.T) {
	clk := simclock.New()
	fs := newFS(128)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru", HighWater: 0.5, LowWater: 0.25})

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

func TestTrackedEntriesGCWithoutPressure(t *testing.T) {
	// Files created and removed while GPU usage never crosses the
	// high-water mark must not accumulate in the daemon: the reclaim
	// path (which also sweeps) only runs under pressure.
	clk := simclock.New()
	fs := newFS(16 << 10)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru", HighWater: 0.99})
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
