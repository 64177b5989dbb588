package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// The shape the repository benchmark's prefix_share workload submits: a
// long preamble many requests share and a short tail each owns.
const (
	sharedTokens = 1024
	uniqueTokens = 48
)

// sharedPrompt returns the preamble of family fam followed by tail's own
// tokens. Different families differ from their first token on, so they
// share nothing; different tails of one family share exactly the preamble.
func sharedPrompt(fam, tail int) []token.ID {
	toks := make([]token.ID, 0, sharedTokens+uniqueTokens)
	for i := 0; i < sharedTokens; i++ {
		toks = append(toks, token.ID(100+(fam*7919+i*31)%30000))
	}
	for i := 0; i < uniqueTokens; i++ {
		toks = append(toks, token.ID(100+(tail*104729+i*17)%30000))
	}
	return toks
}

// newDistKernel builds a one-replica kernel with the prefix cache on or
// off and nothing else that could tell the two apart.
func newDistKernel(prefix bool) (*simclock.Clock, *Kernel) {
	clk := simclock.New()
	return clk, New(clk, Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Prefix: PrefixConfig{Enabled: prefix, MaxNodes: 256},
	})
}

// predOnce submits toks as one fresh-file prefill and returns what pred
// returned.
func predOnce(ctx *Ctx, toks []token.ID) ([]model.Dist, error) {
	f, err := ctx.KvAnon()
	if err != nil {
		return nil, err
	}
	defer f.Remove()
	pos := make([]int, len(toks))
	for i := range pos {
		pos[i] = i
	}
	return ctx.Pred(f, toks, pos)
}

// runProgram drives prog to completion as one process on k and, unlike
// drive, leaves the clock running, so a benchmark can seed the cache and
// then time a second program.
func runProgram(tb testing.TB, clk *simclock.Clock, k *Kernel, prog Program) {
	tb.Helper()
	var err error
	clk.Go("driver", func() { err = k.Submit("u", prog).Wait() })
	clk.WaitQuiescent()
	if err != nil {
		tb.Fatal(err)
	}
}

// TestPrefixHitDistsEqualCacheOff pins pred's contract across a
// prefix-cache hit: one distribution per submitted token, and each of them
// — unbuilt for the attached positions, built for the executed ones —
// answers exactly as the one a kernel without the cache computes.
func TestPrefixHitDistsEqualCacheOff(t *testing.T) {
	seed, probe := sharedPrompt(1, 1), sharedPrompt(1, 2)
	dists := map[bool][]model.Dist{}
	for _, prefix := range []bool{false, true} {
		clk, k := newDistKernel(prefix)
		runProgram(t, clk, k, func(ctx *Ctx) error {
			if _, err := predOnce(ctx, seed); err != nil {
				return err
			}
			d, err := predOnce(ctx, probe)
			dists[prefix] = d
			return err
		})
		clk.Shutdown()
		st := k.Stats()
		wantHit, wantExec := int64(0), int64(2*len(probe))
		if prefix {
			wantHit, wantExec = sharedTokens, int64(2*len(probe)-sharedTokens)
		}
		if st.PrefixCache.HitTokens != wantHit || st.Sched.ExecutedTokens != wantExec {
			t.Fatalf("prefix=%v: HitTokens=%d ExecutedTokens=%d, want %d and %d",
				prefix, st.PrefixCache.HitTokens, st.Sched.ExecutedTokens, wantHit, wantExec)
		}
	}
	got, want := dists[true], dists[false]
	if len(got) != len(probe) || len(want) != len(probe) {
		t.Fatalf("pred returned %d (cache on) and %d (off) distributions for %d tokens", len(got), len(want), len(probe))
	}
	for i := range want {
		gc, wc := got[i].Candidates(), want[i].Candidates()
		if len(gc) != len(wc) {
			t.Fatalf("position %d: %d candidates, want %d", i, len(gc), len(wc))
		}
		for j := range wc {
			if gc[j] != wc[j] {
				t.Fatalf("position %d candidate %d: %v, want %v", i, j, gc[j], wc[j])
			}
		}
		for _, tok := range []token.ID{wc[0].Token, wc[len(wc)-1].Token, token.PAD} {
			if g, w := got[i].ProbOf(tok), want[i].ProbOf(tok); g != w {
				t.Fatalf("position %d: ProbOf(%d) %v, want %v", i, tok, g, w)
			}
		}
	}
}

// benchPred times one 1,024+48-token prefill per iteration on a kernel with
// the prefix cache on and one prompt family seeded. With hit set every
// iteration's prompt is of that family and attaches its preamble; otherwise
// each is a family of its own and misses.
func benchPred(b *testing.B, hit bool) {
	clk, k := newDistKernel(true)
	defer clk.Shutdown()
	runProgram(b, clk, k, func(ctx *Ctx) error {
		_, err := predOnce(ctx, sharedPrompt(0, 0))
		return err
	})
	prompts := make([][]token.ID, b.N)
	for i := range prompts {
		fam := 0
		if !hit {
			fam = i + 1
		}
		prompts[i] = sharedPrompt(fam, i+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	runProgram(b, clk, k, func(ctx *Ctx) error {
		for _, toks := range prompts {
			if _, err := predOnce(ctx, toks); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	want := int64(0)
	if hit {
		want = int64(b.N) * sharedTokens
	}
	if got := k.Stats().PrefixCache.HitTokens; got != want {
		b.Fatalf("HitTokens=%d over %d iterations, want %d", got, b.N, want)
	}
}

// BenchmarkPredPrefixHit is a pred that attaches its 1,024-token preamble
// from the radix cache and executes 48 tokens.
func BenchmarkPredPrefixHit(b *testing.B) { benchPred(b, true) }

// BenchmarkPredPrefixMiss is the same pred when nothing of its prompt is
// cached: all 1,072 tokens execute.
func BenchmarkPredPrefixMiss(b *testing.B) { benchPred(b, false) }
