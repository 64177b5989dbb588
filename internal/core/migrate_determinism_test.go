package core

import (
	"reflect"
	"testing"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/token"
)

// familyPrompt is a prompt of n tokens in the family whose first token is
// lead; variant differentiates prompts within the family.
func familyPrompt(lead token.ID, variant, n int) []token.ID {
	toks := make([]token.ID, n)
	toks[0] = lead
	for i := 1; i < n; i++ {
		toks[i] = token.ID(1000*variant + i)
	}
	return toks
}

// directoryHomes sweeps the kernel's prefix directory and returns the
// surviving per-root homes — the decision state later placement reads.
func directoryHomes(k *Kernel) map[model.CtxHash]int {
	k.dir.size()
	k.dir.mu.Lock()
	defer k.dir.mu.Unlock()
	out := make(map[model.CtxHash]int)
	for root, ri := range k.dir.roots {
		out[root] = ri.home
	}
	return out
}

// directorySweepState registers request files and cached node files of
// four families spread over three replicas, removes every other request
// file and lets the cap evict node files, sweeps, and returns the
// surviving homes.
func directorySweepState(t *testing.T) map[model.CtxHash]int {
	t.Helper()
	const chunk = 4
	clk, k := newPrefixKernelN(3, chunk, 5)
	defer clk.Shutdown()
	var files []*kvfs.File
	for i := 0; i < 12; i++ {
		toks := familyPrompt(token.ID(100+i%4), i, 2*chunk) // 4 families, 3 files each
		f := materialize(t, k, toks)
		files = append(files, f)
		k.dir.observe(f, f.Root())
		if i%3 == 0 {
			k.pcache.insert(f, toks) // two node files; the cap of 5 evicts older ones
			k.dir.setHome(f.Root(), i/3%3, 0)
		}
	}
	for i, f := range files {
		if i%2 == 0 {
			f.Remove()
		}
	}
	return directoryHomes(k)
}

// TestPrefixIndexSweepDeterministic is the regression test for the
// sorted files-map sweep in the directory, with request files and cache
// node files among the victims: identically-built directories must agree
// on the surviving families and their homes on every run.
func TestPrefixIndexSweepDeterministic(t *testing.T) {
	first := directorySweepState(t)
	if len(first) == 0 {
		t.Fatal("sweep removed every family; fixture should keep survivors")
	}
	for run := 1; run < 20; run++ {
		if got := directorySweepState(t); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d directory state %v, first run %v", run, got, first)
		}
	}
}

// FuzzPrefixDirectory drives the kernel's prefix directory and the radix
// cache registered in it with random observe / setHome / file-remove /
// node-insert / node-evict / crash sequences, against a naive reference:
// a family is alive while it has a holder (a registered request file or a
// cached node), and its home is its hash home unless setHome moved it.
func FuzzPrefixDirectory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 3, 0, 0, 2, 3, 1, 1, 1, 2, 5, 1, 3, 0, 4, 0, 2, 0})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 4, 0, 5, 0, 0, 0, 3, 0, 5, 1, 5, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			replicas = 3
			chunk    = 4
			maxNodes = 6
		)
		clk, k := newPrefixKernelN(replicas, chunk, maxNodes)
		defer clk.Shutdown()

		// The reference: each family's home, and the request files that are
		// registered (observed, and not dropped by a crash since).
		home := make(map[model.CtxHash]int)
		registered := make(map[*kvfs.File]bool)
		type request struct {
			f    *kvfs.File
			toks []token.ID
		}
		var live []request

		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		register := func(root model.CtxHash) {
			if _, ok := home[root]; !ok {
				home[root] = int(uint64(root) % replicas)
			}
		}
		for step := 0; i < len(data) && step < 64; step++ {
			op, arg := next()%6, next()
			switch {
			case op == 0 || len(live) == 0: // a new request file, observed
				toks := familyPrompt(token.ID(1+arg%5), arg/5, chunk*(1+arg%3)+1)
				r := request{materialize(t, k, toks), toks}
				live = append(live, r)
				k.dir.observe(r.f, r.f.Root())
				registered[r.f] = true
				register(r.f.Root())
			case op == 1: // a move of some live family
				r := live[arg%len(live)]
				if _, ok := home[r.f.Root()]; ok {
					home[r.f.Root()] = arg % replicas
				}
				k.dir.setHome(r.f.Root(), arg%replicas, 0)
			case op == 2: // a request file removed
				r := live[arg%len(live)]
				live = append(live[:arg%len(live)], live[arg%len(live)+1:]...)
				delete(registered, r.f)
				r.f.Remove()
			case op == 3: // a prefill commits its prompt to the tree
				r := live[arg%len(live)]
				k.pcache.insert(r.f, r.toks)
				register(r.f.Root())
			case op == 4: // the cap takes one more idle leaf
				pc := k.pcache
				pc.mu.Lock()
				pc.maxNodes = len(pc.nodes) - 1
				victims := pc.evictOverCapLocked()
				pc.maxNodes = maxNodes
				pc.mu.Unlock()
				for _, vf := range victims {
					vf.Remove()
				}
			case op == 5: // a replica crash-restarts
				crashed := arg % replicas
				for _, r := range live {
					if home[r.f.Root()] == crashed {
						delete(registered, r.f)
					}
				}
				k.replicaCrashed(crashed)
			}

			// A family outlives a sweep exactly while it has a holder.
			got := directoryHomes(k)
			holders := make(map[model.CtxHash]bool)
			for rf := range registered {
				holders[rf.Root()] = true
			}
			k.pcache.mu.Lock()
			for _, n := range k.pcache.nodes {
				holders[n.root] = true
				if _, ok := got[n.root]; !ok {
					t.Errorf("step %d: cache node at depth %d names root %x the directory dropped", step, n.depth, n.root)
				}
			}
			k.pcache.mu.Unlock()
			for root := range home {
				if !holders[root] {
					delete(home, root)
				}
			}
			if !reflect.DeepEqual(got, home) {
				t.Fatalf("step %d (op %d): directory homes %v, reference %v", step, op, got, home)
			}
			perHome := make([]int, replicas)
			for _, h := range got {
				perHome[h]++
			}
			if !reflect.DeepEqual(k.dir.perHome, perHome) {
				t.Fatalf("step %d: perHome %v, families per home %v", step, k.dir.perHome, perHome)
			}
			checkChildCounts(t, k.pcache, "fuzz step")
		}
	})
}
