package kvfs

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/token"
)

// tinyFS returns a file system with small pages and a capacity of gpuPages
// GPU pages, so OOM paths are easy to exercise.
func tinyFS(pageTokens, gpuPages, hostPages int) *FS {
	return NewFS(Config{
		PageTokens:    pageTokens,
		GPUBytes:      int64(gpuPages) * int64(pageTokens),
		HostBytes:     int64(hostPages) * int64(pageTokens),
		BytesPerToken: 1,
	})
}

func seq(n, start int) ([]token.ID, []int) {
	toks := make([]token.ID, n)
	pos := make([]int, n)
	for i := range toks {
		toks[i] = token.ID(100 + start + i)
		pos[i] = start + i
	}
	return toks, pos
}

func mustAppend(t *testing.T, f *File, n, start int) []model.CtxHash {
	t.Helper()
	toks, pos := seq(n, start)
	tails, err := f.Append(toks, pos)
	if err != nil {
		t.Fatalf("append %d@%d: %v", n, start, err)
	}
	return tails
}

func TestAppendTailMatchesModelHash(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	toks, pos := seq(10, 0)
	tails, err := f.Append(toks, pos)
	if err != nil {
		t.Fatal(err)
	}
	want := model.HashContext(0, toks, 0)
	if f.Tail() != want {
		t.Fatalf("tail = %v, want %v", f.Tail(), want)
	}
	if tails[len(tails)-1] != want {
		t.Fatal("last per-token tail != file tail")
	}
	// Per-token tails must be the running prefixes.
	for i := range toks {
		if tails[i] != model.HashContext(0, toks[:i+1], 0) {
			t.Fatalf("tail %d mismatch", i)
		}
	}
	if f.Len() != 10 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestAppendLengthMismatch(t *testing.T) {
	fs := tinyFS(4, 10, 10)
	f := fs.CreateAnon("u")
	if _, err := f.Append([]token.ID{1, 2}, []int{0}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestPageAccounting(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	mustAppend(t, f, 9, 0) // 3 pages (4+4+1)
	if got := fs.Stats().GPUPages; got != 3 {
		t.Fatalf("pages = %d, want 3", got)
	}
	mustAppend(t, f, 3, 9) // fills page 3 exactly
	if got := fs.Stats().GPUPages; got != 3 {
		t.Fatalf("pages = %d, want 3", got)
	}
	mustAppend(t, f, 1, 12)
	if got := fs.Stats().GPUPages; got != 4 {
		t.Fatalf("pages = %d, want 4", got)
	}
	if err := f.Remove(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().GPUPages; got != 0 {
		t.Fatalf("pages after remove = %d, want 0", got)
	}
}

func TestForkSharesPagesAndIsolates(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	parent := fs.CreateAnon("u")
	mustAppend(t, parent, 8, 0) // 2 full pages
	before := fs.Stats().GPUPages
	child, err := parent.Fork("u")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats().GPUPages != before {
		t.Fatalf("fork allocated pages: %d -> %d", before, fs.Stats().GPUPages)
	}
	if child.Tail() != parent.Tail() || child.Len() != parent.Len() {
		t.Fatal("fork does not mirror parent")
	}
	// Divergent appends must not interfere.
	mustAppend(t, child, 4, 8)
	parentTail := parent.Tail()
	mustAppend(t, parent, 4, 8)
	toksC := child.Entries()
	toksP := parent.Entries()
	if len(toksC) != 12 || len(toksP) != 12 {
		t.Fatalf("lens %d %d", len(toksC), len(toksP))
	}
	_ = parentTail
	// Same appended content ⇒ same tail even though stored separately.
	if child.Tail() != parent.Tail() {
		t.Fatal("identical contexts, different tails")
	}
	// Removing parent must keep child usable (shared pages survive).
	if err := parent.Remove(); err != nil {
		t.Fatal(err)
	}
	if got := child.Len(); got != 12 {
		t.Fatalf("child len after parent removal = %d", got)
	}
	if child.Entries()[0].Tok != 100 {
		t.Fatal("child content corrupted by parent removal")
	}
}

func TestForkCOWOnPartialPage(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	parent := fs.CreateAnon("u")
	mustAppend(t, parent, 6, 0) // page0 full, page1 half
	child, _ := parent.Fork("u")
	if fs.Stats().COWCopies != 0 {
		t.Fatal("premature COW")
	}
	mustAppend(t, child, 1, 6) // must copy the shared partial page
	if fs.Stats().COWCopies != 1 {
		t.Fatalf("COW copies = %d, want 1", fs.Stats().COWCopies)
	}
	// Parent's view is untouched.
	if parent.Len() != 6 {
		t.Fatalf("parent len = %d", parent.Len())
	}
	ptoks := parent.Entries()
	if ptoks[5].Tok != 105 {
		t.Fatalf("parent content changed: %v", ptoks)
	}
	// Parent appending now is on its own (exclusively owned) page copy.
	mustAppend(t, parent, 1, 6)
	if fs.Stats().COWCopies != 1 {
		t.Fatalf("unexpected second COW: %d", fs.Stats().COWCopies)
	}
}

func TestForkChainDeepSharing(t *testing.T) {
	fs := tinyFS(4, 10, 10)
	f := fs.CreateAnon("u")
	mustAppend(t, f, 8, 0)
	var files []*File
	for i := 0; i < 20; i++ { // 20 forks of 2 pages each would be 40 pages
		c, err := f.Fork("u")
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, c)
	}
	if got := fs.Stats().GPUPages; got != 2 {
		t.Fatalf("pages = %d, want 2 (all shared)", got)
	}
	for _, c := range files {
		if err := c.Remove(); err != nil {
			t.Fatal(err)
		}
	}
	f.Remove()
	if got := fs.Stats().GPUPages; got != 0 {
		t.Fatalf("leak: %d pages", got)
	}
}

func TestTruncateExactness(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	toks, pos := seq(10, 0)
	f.Append(toks, pos)
	if err := f.Truncate(7); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 7 {
		t.Fatalf("len = %d", f.Len())
	}
	if want := model.HashContext(0, toks[:7], 0); f.Tail() != want {
		t.Fatalf("truncated tail mismatch")
	}
	// Re-append the same suffix: identical context to the original build.
	f.Append(toks[7:], pos[7:])
	if want := model.HashContext(0, toks, 0); f.Tail() != want {
		t.Fatal("rebuild after truncate diverged")
	}
	// Truncate frees whole pages.
	f.Truncate(1)
	if got := fs.Stats().GPUPages; got != 1 {
		t.Fatalf("pages after truncate = %d", got)
	}
	f.Truncate(0)
	if f.Tail() != 0 {
		t.Fatal("empty file tail != 0")
	}
	if err := f.Truncate(1); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("growing truncate = %v", err)
	}
}

func TestTruncatePreservesSharedSibling(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	parent := fs.CreateAnon("u")
	mustAppend(t, parent, 8, 0)
	child, _ := parent.Fork("u")
	if err := parent.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if child.Len() != 8 {
		t.Fatal("truncating parent shrank child")
	}
	if child.Entries()[7].Tok != 107 {
		t.Fatal("child content lost")
	}
	// Page 1 is still referenced by the child only.
	if got := fs.Stats().GPUPages; got != 2 {
		t.Fatalf("pages = %d, want 2", got)
	}
}

func TestExtractPrefixIsExact(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	toks, pos := seq(10, 0)
	f.Append(toks, pos)
	pre, err := f.Extract("u", []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Approx() {
		t.Fatal("prefix extract marked approximate")
	}
	if want := model.HashContext(0, toks[:5], 0); pre.Tail() != want {
		t.Fatal("prefix extract tail mismatch")
	}
}

func TestExtractPruningIsApproximate(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	toks, pos := seq(10, 0)
	f.Append(toks, pos)
	pruned, err := f.Extract("u", []int{0, 2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Approx() {
		t.Fatal("pruning extract not marked approximate")
	}
	// Deterministic: same extraction twice gives the same context.
	pruned2, _ := f.Extract("u", []int{0, 2, 4, 6, 8})
	if pruned.Tail() != pruned2.Tail() {
		t.Fatal("extract not deterministic")
	}
	// But different from recomputing those tokens from scratch.
	var direct []token.ID
	for _, i := range []int{0, 2, 4, 6, 8} {
		direct = append(direct, toks[i])
	}
	if pruned.Tail() == model.HashContext(0, direct, 0) {
		t.Fatal("approximate context equals exact recompute")
	}
	// Entries keep original positions and KV identities.
	es := pruned.Entries()
	if es[1].Pos != 2 || es[1].Tok != 102 {
		t.Fatalf("entry not preserved: %+v", es[1])
	}
}

func TestExtractValidation(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	mustAppend(t, f, 5, 0)
	if _, err := f.Extract("u", []int{3, 3}); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("duplicate indices: %v", err)
	}
	if _, err := f.Extract("u", []int{4, 2}); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("decreasing indices: %v", err)
	}
	if _, err := f.Extract("u", []int{5}); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("out of range: %v", err)
	}
}

func TestMergeDeterministicOrderSensitive(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	a := fs.CreateAnon("u")
	b := fs.CreateAnon("u")
	mustAppend(t, a, 5, 0)
	mustAppend(t, b, 5, 100)
	ab, err := fs.Merge("u", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Len() != 10 || !ab.Approx() {
		t.Fatalf("merge len=%d approx=%v", ab.Len(), ab.Approx())
	}
	ab2, _ := fs.Merge("u", a, b)
	if ab.Tail() != ab2.Tail() {
		t.Fatal("merge not deterministic")
	}
	ba, _ := fs.Merge("u", b, a)
	if ab.Tail() == ba.Tail() {
		t.Fatal("merge order-insensitive")
	}
	// Merged file owns fresh pages; removing sources must not disturb it.
	a.Remove()
	b.Remove()
	if ab.Entries()[0].Tok != 100 {
		t.Fatal("merge shares storage with sources")
	}
}

func TestOOMLeavesFileUnchanged(t *testing.T) {
	fs := tinyFS(4, 2, 10) // 8 tokens of GPU capacity
	f := fs.CreateAnon("u")
	mustAppend(t, f, 6, 0)
	tailBefore := f.Tail()
	toks, pos := seq(6, 6) // needs 1.5 more pages -> OOM
	if _, err := f.Append(toks, pos); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if f.Len() != 6 || f.Tail() != tailBefore {
		t.Fatal("failed append mutated file")
	}
	if fs.Stats().GPUPages != 2 {
		t.Fatalf("reservation leaked: %d pages", fs.Stats().GPUPages)
	}
	if fs.Stats().OOMErrors == 0 {
		t.Fatal("OOM not counted")
	}
	// Freeing space lets the append proceed.
	f.Truncate(2)
	if _, err := f.Append(toks[:4], pos[:4]); err != nil {
		t.Fatalf("append after free: %v", err)
	}
}

func TestNamedFileLifecycle(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f, err := fs.Create("sys_msg.kv", "alice", ModeShared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("sys_msg.kv", "bob", ModePrivate); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := fs.Open("nope", "alice", false); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	// World-readable, not world-writable.
	if _, err := fs.Open("sys_msg.kv", "bob", false); err != nil {
		t.Fatalf("world read: %v", err)
	}
	if _, err := fs.Open("sys_msg.kv", "bob", true); !errors.Is(err, ErrPerm) {
		t.Fatalf("world write: %v", err)
	}
	if _, err := fs.Open("sys_msg.kv", "alice", true); err != nil {
		t.Fatalf("owner write: %v", err)
	}
	if _, err := fs.Open("sys_msg.kv", Admin, true); err != nil {
		t.Fatalf("admin write: %v", err)
	}
	// Private file invisible to others.
	fs.Create("secret.kv", "alice", ModePrivate)
	if _, err := fs.Open("secret.kv", "bob", false); !errors.Is(err, ErrPerm) {
		t.Fatalf("private read: %v", err)
	}
	got := fs.List("s")
	if len(got) != 2 || got[0] != "secret.kv" || got[1] != "sys_msg.kv" {
		t.Fatalf("List = %v", got)
	}
	if err := fs.Remove("sys_msg.kv", "bob"); !errors.Is(err, ErrPerm) {
		t.Fatalf("non-owner remove: %v", err)
	}
	if err := fs.Remove("sys_msg.kv", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append([]token.ID{1}, []int{0}); !errors.Is(err, ErrRemoved) {
		t.Fatalf("use after remove: %v", err)
	}
	if len(fs.List("")) != 1 {
		t.Fatalf("List after remove = %v", fs.List(""))
	}
}

func TestLinkAnonymous(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("alice")
	mustAppend(t, f, 3, 0)
	if err := fs.Link(f, "saved.kv", "bob"); !errors.Is(err, ErrPerm) {
		t.Fatalf("non-owner link: %v", err)
	}
	if err := fs.Link(f, "saved.kv", "alice"); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("saved.kv", "alice", true)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("Open returned a different file")
	}
	if f.Path() != "saved.kv" {
		t.Fatalf("path = %q", f.Path())
	}
}

func TestAdvisoryLocks(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	if err := f.TryLock("p1"); err != nil {
		t.Fatal(err)
	}
	if err := f.TryLock("p2"); !errors.Is(err, ErrLocked) {
		t.Fatalf("second lock: %v", err)
	}
	if err := f.TryLock("p1"); !errors.Is(err, ErrLocked) {
		t.Fatalf("recursive lock: %v", err)
	}
	if err := f.Unlock("p2"); !errors.Is(err, ErrPerm) {
		t.Fatalf("foreign unlock: %v", err)
	}
	if f.LockedBy() != "p1" {
		t.Fatalf("holder = %q", f.LockedBy())
	}
	if err := f.Unlock("p1"); err != nil {
		t.Fatal(err)
	}
	if err := f.TryLock("p2"); err != nil {
		t.Fatalf("relock after unlock: %v", err)
	}
}

func TestOffloadRestore(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	mustAppend(t, f, 10, 0)
	moved, err := f.Offload()
	if err != nil || moved != 10 {
		t.Fatalf("offload = %d, %v", moved, err)
	}
	if f.GPUResident() {
		t.Fatal("still GPU resident")
	}
	st := fs.Stats()
	if st.GPUPages != 0 || st.HostPages != 3 {
		t.Fatalf("tiers = %d gpu, %d host", st.GPUPages, st.HostPages)
	}
	// pred's precondition: appending to an offloaded file fails.
	if _, err := f.Append([]token.ID{1}, []int{10}); !errors.Is(err, ErrOffGPU) {
		t.Fatalf("append offloaded: %v", err)
	}
	back, err := f.Restore()
	if err != nil || back != 10 {
		t.Fatalf("restore = %d, %v", back, err)
	}
	if !f.GPUResident() {
		t.Fatal("not restored")
	}
	gpu, host, _ := f.ResidentTokens()
	if gpu != 10 || host != 0 {
		t.Fatalf("resident = %d/%d", gpu, host)
	}
	// Context is intact after the round trip.
	toks, _ := seq(10, 0)
	if f.Tail() != model.HashContext(0, toks, 0) {
		t.Fatal("tail changed across offload/restore")
	}
}

func TestOffloadSkipsSharedPages(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	parent := fs.CreateAnon("u")
	mustAppend(t, parent, 8, 0)
	child, _ := parent.Fork("u")
	mustAppend(t, child, 4, 8) // child has 2 shared + 1 private page
	moved, err := child.Offload()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 4 {
		t.Fatalf("moved %d tokens, want only the private 4", moved)
	}
	if parent.GPUResident() != true {
		t.Fatal("shared pages moved under parent")
	}
}

func TestForkRequiresResidency(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	mustAppend(t, f, 8, 0)
	f.Offload()
	if _, err := f.Fork("u"); !errors.Is(err, ErrOffGPU) {
		t.Fatalf("fork of offloaded file: %v", err)
	}
	if _, err := f.Restore(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fork("u"); err != nil {
		t.Fatalf("fork after restore: %v", err)
	}
	// Residency accounting stays exact across a truncate of host pages.
	g := fs.CreateAnon("u")
	mustAppend(t, g, 12, 0)
	g.Offload()
	if err := g.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if g.GPUResident() {
		t.Fatal("still holds a host page")
	}
	if _, err := g.Restore(); err != nil {
		t.Fatal(err)
	}
	if !g.GPUResident() {
		t.Fatal("restore after truncate did not recover residency")
	}
}

func TestRestoreOOMPartial(t *testing.T) {
	fs := tinyFS(4, 3, 100)
	f := fs.CreateAnon("u")
	mustAppend(t, f, 12, 0) // exactly 3 pages
	f.Offload()
	// Consume 2 GPU pages so restore can bring back only 1.
	g := fs.CreateAnon("u")
	mustAppend(t, g, 8, 0)
	moved, err := f.Restore()
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if moved != 4 {
		t.Fatalf("partial restore moved %d", moved)
	}
	g.Remove()
	moved, err = f.Restore()
	if err != nil || moved != 8 {
		t.Fatalf("second restore = %d, %v", moved, err)
	}
	if !f.GPUResident() {
		t.Fatal("not fully restored")
	}
}

func TestStatsPeak(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	f := fs.CreateAnon("u")
	mustAppend(t, f, 40, 0)
	f.Remove()
	st := fs.Stats()
	if st.GPUPeakPages != 10 || st.GPUPages != 0 {
		t.Fatalf("peak=%d cur=%d", st.GPUPeakPages, st.GPUPages)
	}
}

func TestMergeAndExtractEdgeCases(t *testing.T) {
	fs := tinyFS(4, 100, 100)
	a := fs.CreateAnon("u")
	empty := fs.CreateAnon("u")
	mustAppend(t, a, 5, 0)

	// Merging with an empty file equals copying the non-empty one.
	m, err := fs.Merge("u", a, empty)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 5 {
		t.Fatalf("merge len = %d", m.Len())
	}
	// Extract of zero indices yields an empty file.
	e, err := a.Extract("u", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 || e.Tail() != 0 {
		t.Fatalf("empty extract: len=%d tail=%v", e.Len(), e.Tail())
	}
	// Merge of nothing yields an empty file too.
	z, err := fs.Merge("u")
	if err != nil || z.Len() != 0 {
		t.Fatalf("empty merge: %v len=%d", err, z.Len())
	}
	// Operations on removed files fail across the board.
	a.Remove()
	if _, err := a.Extract("u", []int{0}); !errors.Is(err, ErrRemoved) {
		t.Fatalf("extract after remove: %v", err)
	}
	if _, err := a.Fork("u"); !errors.Is(err, ErrRemoved) {
		t.Fatalf("fork after remove: %v", err)
	}
	if err := a.Truncate(0); !errors.Is(err, ErrRemoved) {
		t.Fatalf("truncate after remove: %v", err)
	}
	if _, err := fs.Merge("u", a); !errors.Is(err, ErrRemoved) {
		t.Fatalf("merge of removed: %v", err)
	}
	if err := fs.Link(a, "x.kv", "u"); !errors.Is(err, ErrRemoved) {
		t.Fatalf("link of removed: %v", err)
	}
	if err := a.Remove(); !errors.Is(err, ErrRemoved) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestGPUFreeTokensTracksUsage(t *testing.T) {
	fs := tinyFS(4, 10, 10) // 40 tokens capacity
	if fs.GPUFreeTokens() != 40 {
		t.Fatalf("initial free = %d", fs.GPUFreeTokens())
	}
	f := fs.CreateAnon("u")
	mustAppend(t, f, 9, 0) // 3 pages
	if fs.GPUFreeTokens() != 28 {
		t.Fatalf("free after 3 pages = %d", fs.GPUFreeTokens())
	}
	f.Offload()
	if fs.GPUFreeTokens() != 40 {
		t.Fatalf("free after offload = %d", fs.GPUFreeTokens())
	}
}

// Property: for any split points, building a file in chunks yields the same
// tail as building it at once, and fork+append equals direct build.
func TestAppendChunkingProperty(t *testing.T) {
	f := func(raw []uint16, split uint8) bool {
		if len(raw) == 0 {
			return true
		}
		toks := make([]token.ID, len(raw))
		pos := make([]int, len(raw))
		for i, v := range raw {
			toks[i] = token.ID(v)
			pos[i] = i
		}
		cut := int(split) % len(raw)

		fs := tinyFS(4, 10000, 10)
		whole := fs.CreateAnon("u")
		whole.Append(toks, pos)

		parts := fs.CreateAnon("u")
		parts.Append(toks[:cut], pos[:cut])
		parts.Append(toks[cut:], pos[cut:])
		if whole.Tail() != parts.Tail() {
			return false
		}

		base := fs.CreateAnon("u")
		base.Append(toks[:cut], pos[:cut])
		forked, err := base.Fork("u")
		if err != nil {
			return false
		}
		forked.Append(toks[cut:], pos[cut:])
		return forked.Tail() == whole.Tail()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: every tier transition conserves pages exactly. After any
// sequence of offload / restore / spill / spill-rollback / disk-promote
// ops interleaved with forks, appends and truncates — on tiers tight
// enough that the walks also stop part-way on a full destination — the
// pages counted by walking the live files equal the GPU and host ledgers,
// GPUResident agrees with the walk, and the base file restores bit for
// bit.
func TestTierMigrationProperty(t *testing.T) {
	conserved := func(fs *FS, live []*File) bool {
		var pages [3]int
		seen := make(map[*page]bool)
		for _, f := range live {
			resident := true
			for _, pg := range f.pages {
				resident = resident && pg.tier == GPU
				if !seen[pg] {
					seen[pg] = true
					pages[pg.tier]++
				}
			}
			if f.GPUResident() != resident {
				return false
			}
		}
		st := fs.Stats()
		return st.GPUPages == pages[GPU] && st.HostPages == pages[Host]
	}
	f := func(ops []uint8) bool {
		fs, dt := diskFS(4, 7, 3, 1000)
		base := fs.CreateAnon("u")
		toks, pos := seq(20, 0)
		base.Append(toks, pos)
		want := base.Tail()
		// The second file grows by appends, so the GPU tier can fill while
		// base's pages sit below it.
		live := []*File{base, fs.CreateAnon("u")}
		for _, op := range ops {
			target := live[int(op>>3)%len(live)]
			switch op % 8 {
			case 0:
				target.Offload()
			case 1:
				target.Restore()
			case 2:
				if c, err := target.Fork("u"); err == nil {
					live = append(live, c)
				}
			case 3:
				if target != base && target.Len() > 1 {
					target.Truncate(target.Len() - 1)
				}
			case 4:
				if target != base {
					toks, pos := seq(3, target.Len())
					target.Append(toks, pos)
				}
			case 5:
				dt.Spill(target)
			case 6:
				// What a failed Commit does to a pending spill, bounded the
				// same way.
				target.movePages(Disk, Host, 4*(1+int(op>>6)))
			case 7:
				target.PromoteDisk()
			}
			if !conserved(fs, live) {
				return false
			}
		}
		for _, f := range live[1:] {
			f.Remove()
		}
		if _, err := base.Restore(); err != nil {
			return false
		}
		if _, err := base.PromoteDisk(); err != nil {
			return false
		}
		if base.Tail() != want || base.Len() != 20 {
			return false
		}
		gpu, host, disk := base.ResidentTokens()
		return gpu == 20 && host == 0 && disk == 0 && conserved(fs, live[:1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: page accounting is conserved across arbitrary fork/remove
// sequences — after removing every file, zero pages remain.
func TestRefcountConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		fs := tinyFS(4, 100000, 10)
		live := []*File{fs.CreateAnon("u")}
		n := 0
		for _, op := range ops {
			if len(live) == 0 {
				live = append(live, fs.CreateAnon("u"))
			}
			target := live[int(op)%len(live)]
			switch op % 3 {
			case 0:
				toks, pos := seq(int(op)%7+1, n)
				n += len(toks)
				if _, err := target.Append(toks, pos); err != nil {
					return false
				}
			case 1:
				c, err := target.Fork("u")
				if err != nil {
					return false
				}
				live = append(live, c)
			case 2:
				if err := target.Remove(); err != nil {
					return false
				}
				for i, f := range live {
					if f == target {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		}
		for _, f := range live {
			if err := f.Remove(); err != nil {
				return false
			}
		}
		st := fs.Stats()
		return st.GPUPages == 0 && st.HostPages == 0 && st.Files == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Truncate(k) then re-Append of the identical suffix always
// restores the original tail.
func TestTruncateRebuildProperty(t *testing.T) {
	f := func(raw []uint16, cutRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		toks := make([]token.ID, len(raw))
		pos := make([]int, len(raw))
		for i, v := range raw {
			toks[i] = token.ID(v)
			pos[i] = i
		}
		cut := int(cutRaw) % len(raw)
		fs := tinyFS(8, 10000, 10)
		f := fs.CreateAnon("u")
		f.Append(toks, pos)
		orig := f.Tail()
		if err := f.Truncate(cut); err != nil {
			return false
		}
		if _, err := f.Append(toks[cut:], pos[cut:]); err != nil {
			return false
		}
		return f.Tail() == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
