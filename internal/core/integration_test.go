package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/trace"
)

// TestKVPersistsAcrossProcesses exercises §4.2's central property: a KV
// file outlives the process that created it, and a later process resumes
// from it with bit-identical model behaviour.
func TestKVPersistsAcrossProcesses(t *testing.T) {
	clk, k := newKernel()
	prefix := "persistent system prompt built by the first process"
	var resumed, direct string
	drive(t, clk, func() {
		builder := k.Submit("alice", func(ctx *Ctx) error {
			f, err := ctx.KvCreate("persist.kv", kvfs.ModeShared)
			if err != nil {
				return err
			}
			toks := ctx.Tokenize(prefix)
			pos := make([]int, len(toks))
			for i := range pos {
				pos[i] = i
			}
			_, err = ctx.Pred(f, toks, pos)
			return err
		})
		if err := builder.Wait(); err != nil {
			t.Error(err)
			return
		}
		if !builder.Done() {
			t.Error("builder not done")
		}

		// A different user resumes from the shared file.
		resumer := k.Submit("bob", func(ctx *Ctx) error {
			f, err := ctx.KvOpen("persist.kv", false)
			if err != nil {
				return err
			}
			fork, err := ctx.KvFork(f)
			if err != nil {
				return err
			}
			defer fork.Remove()
			var out []token.ID
			cur := mustGreedy(ctx, fork)
			for i := 0; i < 8; i++ {
				out = append(out, cur)
				d, err := ctx.Pred(fork, []token.ID{cur}, []int{fork.Len()})
				if err != nil {
					return err
				}
				cur = d[0].Greedy()
			}
			resumed = ctx.Detokenize(out)
			return nil
		})
		if err := resumer.Wait(); err != nil {
			t.Error(err)
			return
		}

		// Ground truth: one process doing everything at once.
		ref := k.Submit("carol", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			toks := ctx.Tokenize(prefix)
			pos := make([]int, len(toks))
			for i := range pos {
				pos[i] = i
			}
			if _, err := ctx.Pred(f, toks, pos); err != nil {
				return err
			}
			var out []token.ID
			cur := mustGreedy(ctx, f)
			for i := 0; i < 8; i++ {
				out = append(out, cur)
				d, err := ctx.Pred(f, []token.ID{cur}, []int{f.Len()})
				if err != nil {
					return err
				}
				cur = d[0].Greedy()
			}
			direct = ctx.Detokenize(out)
			return nil
		})
		ref.Wait()
	})
	if resumed == "" || resumed != direct {
		t.Fatalf("resumed generation diverged:\n%q\n%q", resumed, direct)
	}
}

// mustGreedy returns the greedy next token for f's current context by
// querying the kernel's default model directly (test-only shortcut).
func mustGreedy(ctx *Ctx, f *kvfs.File) token.ID {
	m, _ := ctx.Kernel().Model("")
	return m.Next(f.Tail()).Greedy()
}

// TestMultiTenantMixedWorkload runs chat, RAG, and agent programs of three
// tenants concurrently and checks global invariants: everything completes,
// thread gauges return to zero, and no KV pages leak.
func TestMultiTenantMixedWorkload(t *testing.T) {
	clk := simclock.New()
	k := New(clk, Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})
	k.RegisterTool("db", Tool{Latency: 80 * time.Millisecond, Fn: func(a string) (string, error) {
		return "rows for " + a, nil
	}})

	chat := func(seed int) Program {
		return func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			cur, err := prefill(ctx, f, fmt.Sprintf("chat %d begins", seed))
			if err != nil {
				return err
			}
			for turn := 0; turn < 3; turn++ {
				for i := 0; i < 6; i++ {
					d, err := ctx.Pred(f, []token.ID{cur}, []int{f.Len()})
					if err != nil {
						return err
					}
					cur = d[0].Greedy()
				}
				if cur2, err := prefill(ctx, f, fmt.Sprintf(" turn %d", turn)); err != nil {
					return err
				} else {
					cur = cur2
				}
				ctx.Sleep(50 * time.Millisecond)
			}
			return nil
		}
	}
	rag := func(seed int) Program {
		return func(ctx *Ctx) error {
			path := fmt.Sprintf("shared-doc-%d.kv", seed%2)
			// The tenants cooperate on shared doc caches, so the files are
			// world-writable; ModeShared (world-read) would stop foreign
			// tenants at the Open/Pred permission checks.
			coop := kvfs.WorldRead | kvfs.WorldWrite
			f, err := ctx.KvOpen(path, true)
			if errors.Is(err, kvfs.ErrNotExist) {
				f, err = ctx.KvCreate(path, coop)
				if errors.Is(err, kvfs.ErrExist) {
					f, err = ctx.KvOpen(path, true)
				}
			}
			if err != nil {
				return err
			}
			if err := ctx.KvLock(f); err != nil {
				return err
			}
			if f.Len() == 0 {
				if _, err := prefill(ctx, f, fmt.Sprintf("document body %d with plenty of words to cache", seed%2)); err != nil {
					ctx.KvUnlock(f)
					return err
				}
			}
			if err := ctx.KvUnlock(f); err != nil {
				return err
			}
			fork, err := ctx.KvFork(f)
			if err != nil {
				return err
			}
			defer fork.Remove()
			cur, err := prefill(ctx, fork, fmt.Sprintf(" question %d?", seed))
			if err != nil {
				return err
			}
			for i := 0; i < 5; i++ {
				d, err := ctx.Pred(fork, []token.ID{cur}, []int{fork.Len()})
				if err != nil {
					return err
				}
				cur = d[0].Greedy()
			}
			return nil
		}
	}
	agent := func(seed int) Program {
		return func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			if _, err := prefill(ctx, f, fmt.Sprintf("agent task %d", seed)); err != nil {
				return err
			}
			res, err := ctx.Call("db", fmt.Sprint(seed))
			if err != nil {
				return err
			}
			_, err = prefill(ctx, f, res)
			return err
		}
	}

	const perKind = 8
	var failures int
	drive(t, clk, func() {
		var procs []*Process
		for i := 0; i < perKind; i++ {
			procs = append(procs,
				k.Submit(fmt.Sprintf("tenant%d", i%3), chat(i)),
				k.Submit(fmt.Sprintf("tenant%d", i%3), rag(i)),
				k.Submit(fmt.Sprintf("tenant%d", i%3), agent(i)),
			)
			clk.Sleep(20 * time.Millisecond)
		}
		for _, p := range procs {
			if err := p.Wait(); err != nil {
				failures++
				t.Errorf("pid %d (%s): %v", p.PID(), p.user, err)
			}
		}
	})
	if failures > 0 {
		t.Fatalf("%d programs failed", failures)
	}
	if avg := k.Stats().Sched.AvgBatch; avg <= 1 {
		t.Fatalf("average batch = %v, expected programs' preds to overlap", avg)
	}
	st := k.Stats()
	// Only the two shared doc files should still hold pages.
	if st.FS.Files != 2 {
		t.Fatalf("files remaining = %d, want the 2 shared docs", st.FS.Files)
	}
	if st.ToolCalls != perKind {
		t.Fatalf("tool calls = %d, want %d", st.ToolCalls, perKind)
	}
	if st.Sched.AvgBatch <= 1 {
		t.Fatalf("no batching across tenants: avg %v", st.Sched.AvgBatch)
	}
}

// prefill appends text to f and returns the greedy next token.
func prefill(ctx *Ctx, f *kvfs.File, text string) (token.ID, error) {
	toks := ctx.Tokenize(text)
	pos := make([]int, len(toks))
	for i := range pos {
		pos[i] = f.Len() + i
	}
	dists, err := ctx.Pred(f, toks, pos)
	if err != nil {
		return 0, err
	}
	return dists[len(dists)-1].Greedy(), nil
}

// TestTracerRecordsKernelSpans checks that a traced run yields process,
// pred, tool, and restore spans with sane timing.
func TestTracerRecordsKernelSpans(t *testing.T) {
	clk := simclock.New()
	tr := trace.New()
	k := New(clk, Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Tracer: tr,
	})
	k.RegisterTool("slow", Tool{Latency: 200 * time.Millisecond})
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			if _, err := prefill(ctx, f, "trace me please"); err != nil {
				return err
			}
			if _, err := ctx.Call("slow", ""); err != nil {
				return err
			}
			_, err = prefill(ctx, f, " more")
			return err
		})
		if err := p.Wait(); err != nil {
			t.Error(err)
		}
	})
	kinds := map[trace.Kind]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
		if e.Dur < 0 {
			t.Errorf("negative duration: %+v", e)
		}
	}
	if kinds[trace.KindProcess] != 1 || kinds[trace.KindPred] != 2 ||
		kinds[trace.KindTool] != 1 || kinds[trace.KindRestore] != 1 {
		t.Fatalf("span counts = %v", kinds)
	}
}

// TestSchedulerBatchesAcrossProcesses asserts the two-level scheduling
// payoff: pred calls from distinct processes share GPU steps.
func TestSchedulerBatchesAcrossProcesses(t *testing.T) {
	clk, k := newKernel()
	drive(t, clk, func() {
		var procs []*Process
		for i := 0; i < 12; i++ {
			i := i
			procs = append(procs, k.Submit("u", func(ctx *Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				cur, err := prefill(ctx, f, fmt.Sprintf("p%d", i))
				if err != nil {
					return err
				}
				for s := 0; s < 10; s++ {
					d, err := ctx.Pred(f, []token.ID{cur}, []int{f.Len()})
					if err != nil {
						return err
					}
					cur = d[0].Greedy()
				}
				return nil
			}))
		}
		for _, p := range procs {
			if err := p.Wait(); err != nil {
				t.Error(err)
			}
		}
	})
	st := k.Stats().Sched
	if st.AvgBatch < 4 {
		t.Fatalf("cross-process batching weak: avg batch %.1f", st.AvgBatch)
	}
}
