package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// newPrefixKernel builds a single-replica kernel with the radix prefix
// cache enabled, small pages so chunk-aligned shares are cheap to build
// in tests, and the given chunk/cap.
func newPrefixKernel(chunk, maxNodes int) (*simclock.Clock, *Kernel) {
	return newPrefixKernelN(1, chunk, maxNodes)
}

// newPrefixKernelN is newPrefixKernel on the given number of replicas, so
// prompt families have distinct hash homes in the prefix directory.
func newPrefixKernelN(replicas, chunk, maxNodes int) (*simclock.Clock, *Kernel) {
	clk := simclock.New()
	fs := kvfs.DefaultConfig()
	fs.PageTokens = 4
	fs.BytesPerToken = 1
	fs.GPUBytes = 1 << 20
	k := New(clk, Config{
		Models:       map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		DefaultModel: "llama-13b",
		FS:           fs,
		Replicas:     replicas,
		Prefix:       PrefixConfig{Enabled: true, ChunkTokens: chunk, MaxNodes: maxNodes},
	})
	return clk, k
}

// materialize appends toks to a fresh anonymous file at positions 0..n-1.
func materialize(t *testing.T, k *Kernel, toks []token.ID) *kvfs.File {
	t.Helper()
	f := k.fs.CreateAnon("u")
	pos := make([]int, len(toks))
	for i := range pos {
		pos[i] = i
	}
	if _, err := f.Append(toks, pos); err != nil {
		t.Fatalf("append: %v", err)
	}
	return f
}

// insertPrompt materializes toks in a throwaway file and commits its
// chunk boundaries into the cache, the way pred does after a prefill.
func insertPrompt(t *testing.T, k *Kernel, toks []token.ID) {
	t.Helper()
	f := materialize(t, k, toks)
	k.pcache.insert(f, toks)
	if err := f.Remove(); err != nil {
		t.Fatalf("remove: %v", err)
	}
}

// TestPrefixCacheReaderBlocksEviction pins the mid-attach safety rule:
// a node held by a reader is never evicted by the MaxNodes cap, no
// matter how stale, and becomes evictable again once released.
func TestPrefixCacheReaderBlocksEviction(t *testing.T) {
	const chunk = 4
	clk, k := newPrefixKernel(chunk, 2)
	defer clk.Shutdown()

	mk := func(lead token.ID) []token.ID {
		toks := make([]token.ID, chunk+1)
		for i := range toks {
			toks[i] = lead + token.ID(i)
		}
		return toks
	}
	held := mk(100)
	insertPrompt(t, k, held)
	node, depth := k.pcache.match(append(held, held...)) // extend past the cached chunk
	if node == nil || depth != chunk {
		t.Fatalf("match = (%v, %d), want the seeded node at depth %d", node, depth, chunk)
	}

	// Over-fill the cache: the held node is the LRU victim by age, but the
	// reader hold must deflect eviction onto the idle nodes.
	for i := 0; i < 4; i++ {
		insertPrompt(t, k, mk(token.ID(200+100*i)))
	}
	if n, d := k.pcache.match(held); n != node || d != chunk {
		t.Fatalf("held node evicted while a reader was mid-attach")
	} else {
		k.pcache.release(n)
	}
	if got := k.pcache.stats().Nodes; got != 2 {
		t.Fatalf("nodes = %d, want the cap 2", got)
	}

	// Released, the node is ordinary LRU prey again.
	k.pcache.release(node)
	insertPrompt(t, k, mk(900))
	insertPrompt(t, k, mk(1900))
	if n, _ := k.pcache.match(held); n != nil {
		k.pcache.release(n)
		t.Fatal("released node survived cap eviction as the LRU victim")
	}
}

// checkChildCounts asserts the tree's leaf bookkeeping: every node's
// children equals the number of its children resident in the tree (cap
// eviction only ever takes nodes it counts as childless).
func checkChildCounts(t *testing.T, pc *prefixCache, when string) {
	t.Helper()
	if err := pc.tree.Verify(); err != nil {
		t.Errorf("%s: %v", when, err)
	}
}

// TestPrefixCacheReaderBlocksInvalidation pins the same rule on the
// crash path: when the family's home crash-restarts, every node of the
// family leaves the tree at once — a reader-held one too, so nothing
// dangles below a dropped parent — but the held node's file, which is
// mid-attach, lives until the reader releases it.
func TestPrefixCacheReaderBlocksInvalidation(t *testing.T) {
	const chunk = 4
	clk, k := newPrefixKernel(chunk, 3)
	defer clk.Shutdown()

	toks := make([]token.ID, 3*chunk)
	for i := range toks {
		toks[i] = token.ID(50 + i)
	}
	insertPrompt(t, k, toks) // nodes at depths 4, 8, 12: one family, homed on the one replica

	node, depth := k.pcache.match(append(toks, 1))
	if depth != 3*chunk {
		t.Fatalf("depth = %d, want %d", depth, 3*chunk)
	}
	k.replicaCrashed(0)
	st := k.pcache.stats()
	if st.Nodes != 0 || st.Invalidations != 3 {
		t.Fatalf("after crash with a held leaf: nodes=%d invalidations=%d, want 0/3",
			st.Nodes, st.Invalidations)
	}
	if _, ok := k.PrefixHome(node.File().Root()); ok {
		t.Fatal("crashed family still has a home in the directory")
	}
	if node.File().Removed() {
		t.Fatal("held node's file reclaimed by invalidation while mid-attach")
	}
	k.pcache.release(node)
	if !node.File().Removed() {
		t.Fatal("dropped node's file outlived its last reader")
	}

	// Regression: invalidation used to spare the held leaf in the map, and
	// re-inserting the prompt then recreated its parent without counting
	// it, so evicting the leaf drove the parent's count negative and
	// exempted the parent chain from cap eviction for good.
	insertPrompt(t, k, toks)
	checkChildCounts(t, k.pcache, "re-inserted after crash")
	for lead := token.ID(200); lead < 500; lead += 100 {
		other := make([]token.ID, chunk+1)
		for i := range other {
			other[i] = lead + token.ID(i)
		}
		insertPrompt(t, k, other) // over the cap of 3: evicts leaf by leaf
		checkChildCounts(t, k.pcache, "cap eviction")
	}
	if st := k.pcache.stats(); st.Nodes != 3 || st.Evictions != 3 {
		t.Fatalf("nodes=%d evictions=%d, want the cap 3 after 3 evictions", st.Nodes, st.Evictions)
	}
}

// prefixPromptJob submits one flat prompt + short decode into a fresh
// anonymous file, the prefix cache's bread-and-butter request shape.
func prefixPromptJob(toks []token.ID, decode int) Program {
	return func(ctx *Ctx) error {
		f, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer f.Remove()
		pos := make([]int, len(toks))
		for i := range pos {
			pos[i] = i
		}
		if _, err := ctx.Pred(f, toks, pos); err != nil {
			return err
		}
		for d := 0; d < decode; d++ {
			if _, err := ctx.Pred(f, []token.ID{token.ID(9000 + d)}, []int{f.Len()}); err != nil {
				return err
			}
		}
		return nil
	}
}

// newRoutedPrefixKernel builds a 2-replica kernel with the prefix cache
// and the named dispatcher, crash-injectable through the returned injector.
func newRoutedPrefixKernel(t *testing.T, clk *simclock.Clock, dispatch string) (*Kernel, *chaos.Injector) {
	t.Helper()
	dispatcher, err := sched.NewDispatcher(dispatch)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(clk, 1)
	return New(clk, Config{
		Models:     map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Replicas:   2,
		Dispatcher: dispatcher,
		CrashCheck: inj.CrashCheck(),
		Prefix:     PrefixConfig{Enabled: true},
	}), inj
}

// TestPrefixCacheCrashInvalidatesHomes pins the crash wiring end to end,
// with and without the migration engine: a replica executor crash (chaos
// CrashCheck) drops every family the prefix directory homes there — the
// directory entry and the family's cache nodes together — after which the
// same prompt misses, re-prefills, reseeds the tree, and serves hits again.
func TestPrefixCacheCrashInvalidatesHomes(t *testing.T) {
	prompt := make([]token.ID, 128)
	for i := range prompt {
		prompt[i] = token.ID(10_000 + i)
	}
	// Same family (same first token), too short to be cached: traffic that
	// the engine routes to the family's home without touching the tree.
	trip := append([]token.ID{prompt[0]}, prompt[100:120]...)

	for _, dispatch := range []string{"round-robin", "cache-affinity-migrate"} {
		t.Run(dispatch, func(t *testing.T) {
			clk := simclock.New()
			k, inj := newRoutedPrefixKernel(t, clk, dispatch)
			drive(t, clk, func() {
				if err := k.Submit("seed", prefixPromptJob(prompt, 2)).Wait(); err != nil {
					t.Errorf("seed: %v", err)
					return
				}
				// The two seeded nodes keep the family in the directory; schedule
				// its home's executor to die at the next iteration boundary.
				home, ok := k.PrefixHome(model.CtxHash(0).Extend(prompt[0], 0))
				if st := k.Stats(); !ok || st.PrefixCache.Nodes != 2 {
					t.Errorf("seeded %d nodes (family homed: %v), want 2", st.PrefixCache.Nodes, ok)
					return
				}
				inj.Arm(chaos.Rule{Point: fmt.Sprintf("replica.%d.crash", home), At: clk.Now() + time.Millisecond, Crash: true})

				// Two uncached requests reach both replicas under round-robin
				// and the family's home under the engine: one trips the crash.
				a := k.Submit("a", prefixPromptJob(trip, 2))
				b := k.Submit("b", prefixPromptJob(trip, 2))
				if err := a.Wait(); err != nil {
					t.Errorf("a: %v", err)
				}
				if err := b.Wait(); err != nil {
					t.Errorf("b: %v", err)
				}

				st := k.Stats()
				if st.Sched.Crashes == 0 {
					t.Error("armed replica crash never fired")
				}
				if st.PrefixCache.Invalidations != 2 {
					t.Errorf("invalidations = %d, want the 2 seeded nodes", st.PrefixCache.Invalidations)
				}
				if st.Migration.Enabled && st.Migration.InvalidatedRoots != 1 {
					t.Errorf("invalidated roots = %d, want the one family", st.Migration.InvalidatedRoots)
				}
				if n, d := k.pcache.match(prompt); n != nil {
					k.pcache.release(n)
					t.Errorf("crashed-home prefix still matches at depth %d", d)
				}
				if st.PrefixCache.HitTokens != 0 {
					t.Errorf("unexpected hits before reseed: %+v", st.PrefixCache)
				}

				// The same prompt re-prefills in full, reseeds the tree, and the
				// next submission hits again.
				if err := k.Submit("reseed", prefixPromptJob(prompt, 2)).Wait(); err != nil {
					t.Errorf("reseed: %v", err)
				}
				if err := k.Submit("again", prefixPromptJob(prompt, 2)).Wait(); err != nil {
					t.Errorf("again: %v", err)
				}
			})
			if st := k.Stats(); st.PrefixCache.HitTokens == 0 {
				t.Fatalf("no hit after reseeding: %+v", st.PrefixCache)
			}
		})
	}
}

// TestPrefixHitKeepsFamilyHome pins the one-key rule: a prefill that
// attaches a cached prefix and every decode step after it carry the
// family's root as affinity key, like the miss that seeded the prefix, so
// the whole family runs on the one replica the directory homes it at — for
// a prompt whose matched node's own hash would have hashed elsewhere.
func TestPrefixHitKeepsFamilyHome(t *testing.T) {
	const decode = 3
	prompt := make([]token.ID, 128)
	for i := range prompt {
		prompt[i] = token.ID(30_000 + i)
	}
	root := model.CtxHash(0).Extend(prompt[0], 0)
	for ; ; prompt[1]++ {
		if tail := model.HashContext(0, prompt[:DefaultPrefixChunk], 0); uint64(tail)%2 != uint64(root)%2 {
			break
		}
	}

	clk := simclock.New()
	k, _ := newRoutedPrefixKernel(t, clk, "cache-affinity-migrate")
	drive(t, clk, func() {
		for _, name := range []string{"seed", "hit"} {
			if err := k.Submit(name, prefixPromptJob(prompt, decode)).Wait(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	})
	st := k.Stats()
	if st.PrefixCache.Hits != 1 {
		t.Fatalf("hits = %d, want the resubmission to attach", st.PrefixCache.Hits)
	}
	home, ok := k.PrefixHome(root)
	if !ok || st.Migration.Roots != 1 {
		t.Fatalf("directory: home known %v, roots %d; want the one family kept alive by its cached nodes", ok, st.Migration.Roots)
	}
	for _, rs := range st.Sched.Replicas {
		want := int64(0)
		if rs.ID == home {
			want = 2 * (1 + decode) // both prefills and every decode step
		}
		if rs.Calls != want {
			t.Fatalf("replica %d ran %d calls, want %d: the family's home is %d (%+v)", rs.ID, rs.Calls, want, home, st.Sched.Replicas)
		}
	}
}

// TestPrefixCacheSurvivesMemoryPressure runs a shared-preamble workload
// on a GPU pool far smaller than the total KV the jobs touch, with the
// memory daemon evicting cold files throughout. The cache's node files
// are ordinary eviction prey (tracked ownerless), but a node mid-attach
// is pinned — every job must complete, and the cache must keep serving
// hits while its idle leaves spill.
func TestPrefixCacheSurvivesMemoryPressure(t *testing.T) {
	const (
		tenants  = 3
		jobs     = 6
		preamble = 128
		suffix   = 64
		decode   = 4
	)
	clk := simclock.New()
	fs := kvfs.DefaultConfig()
	fs.PageTokens = 16
	fs.BytesPerToken = 1
	fs.GPUBytes = 1200 // a fraction of the ~3.5k tokens the run touches
	fs.HostBytes = 1 << 20
	k := New(clk, Config{
		Models:       map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		DefaultModel: "llama-13b",
		FS:           fs,
		KV:           kvd.Config{Policy: "lru"},
		Prefix:       PrefixConfig{Enabled: true},
	})

	drive(t, clk, func() {
		wg := clk.NewWaitGroup()
		for tn := 0; tn < tenants; tn++ {
			tn := tn
			wg.Add(1)
			p := k.Submit(fmt.Sprintf("tenant-%d", tn), func(ctx *Ctx) error {
				if err := ctx.Sleep(time.Duration(tn) * time.Millisecond); err != nil {
					return err
				}
				for j := 0; j < jobs; j++ {
					toks := make([]token.ID, preamble+suffix)
					for i := 0; i < preamble; i++ {
						toks[i] = token.ID(100_000 + tn*10_000 + i)
					}
					for i := 0; i < suffix; i++ {
						toks[preamble+i] = token.ID(500_000 + tn*10_000 + j*100 + i)
					}
					if err := prefixPromptJob(toks, decode)(ctx); err != nil {
						return fmt.Errorf("tenant %d job %d: %w", tn, j, err)
					}
				}
				return nil
			})
			clk.Go("join", func() {
				defer wg.Done()
				if err := p.Wait(); err != nil {
					t.Errorf("tenant: %v", err)
				}
			})
		}
		wg.Wait()
	})

	st := k.Stats()
	if st.KVD.Offloads == 0 {
		t.Fatalf("the pool never came under pressure (offloads=0): %+v", st.KVD)
	}
	if st.PrefixCache.HitTokens == 0 {
		t.Fatalf("no cache hits under pressure: %+v", st.PrefixCache)
	}
	// The execution ledger must balance with hit tokens billed as saved,
	// not executed, even with restores and preemptions in the mix.
	if st.Sched.ExecutedTokens != st.Sched.Tokens+st.Sched.LostTokens {
		t.Fatalf("scheduler ledger broken: executed=%d tokens=%d lost=%d",
			st.Sched.ExecutedTokens, st.Sched.Tokens, st.Sched.LostTokens)
	}
}

// TestPrefixInsertRegistersOnlyLiveNodes: an insert whose cap evicts nodes
// it has just created leaves the prefix directory and the memory daemon
// holding exactly the tree's live node files — a node the cap evicts was
// registered before its removal notice, which took it out again.
func TestPrefixInsertRegistersOnlyLiveNodes(t *testing.T) {
	const chunk = 4
	for _, maxNodes := range []int{1, 2} {
		clk, k := newPrefixKernel(chunk, maxNodes)
		for i := 0; i < 3; i++ {
			insertPrompt(t, k, familyPrompt(token.ID(100+i), i, 3*chunk)) // three nodes, over the cap
			want := make(map[*kvfs.File]bool)
			for _, f := range k.pcache.tree.Files() {
				want[f] = true
			}
			got := make(map[*kvfs.File]bool)
			k.dir.mu.Lock()
			for f := range k.dir.files {
				got[f] = true
			}
			k.dir.mu.Unlock()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cap %d, insert %d: directory holds %d files, tree %d live nodes", maxNodes, i, len(got), len(want))
			}
			if n := k.kvd.Stats().Tracked; n != len(want) {
				t.Errorf("cap %d, insert %d: daemon tracks %d files, tree %d live nodes", maxNodes, i, n, len(want))
			}
		}
		clk.Shutdown()
	}
}
