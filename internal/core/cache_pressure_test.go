package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/lip"
	"repro/internal/simclock"
	"repro/internal/token"
)

// sharedPreambleRun runs twelve concurrent programs with the prefix cache
// on and no forks, on a GPU tier of gpuTokens and a 100k-token host tier.
// Each prefills one of three shared 360-token preambles plus a question
// of its own, then generates 40–51 tokens, sampled or greedy: one program
// needs about 400 tokens of KV. It returns each program's answer and
// error.
func sharedPreambleRun(t *testing.T, gpuTokens int) ([][]token.ID, []error) {
	t.Helper()
	const programs, preamble = 12, 360
	cfg := core.DefaultConfig()
	cfg.FS = kvfs.DefaultConfig()
	cfg.FS.GPUBytes = int64(gpuTokens) * cfg.FS.BytesPerToken
	cfg.FS.HostBytes = 100_000 * cfg.FS.BytesPerToken
	cfg.Prefix = core.PrefixConfig{Enabled: true}
	clk := simclock.New()
	k := core.New(clk, cfg)

	answers := make([][]token.ID, programs)
	progs := make([]core.Program, programs)
	for i := range progs {
		var prompt []token.ID
		for j := 0; j < preamble; j++ {
			prompt = append(prompt, token.ID(1000+1000*(i%3)+j))
		}
		for j := 0; j < 4+i%5; j++ {
			prompt = append(prompt, token.ID(9000+100*i+j))
		}
		opts := lip.GenOptions{MaxTokens: 40 + i}
		if i%2 == 1 {
			opts.Sampler = &lip.Sampler{Temperature: 0.8, TopK: 40, Seed: uint64(i)}
		}
		progs[i] = func(ctx *core.Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			s := lip.NewSession(ctx, f)
			if _, err := s.PrefillTokens(prompt); err != nil {
				return err
			}
			res, err := lip.Generate(s, opts)
			answers[i] = res.Tokens
			return err
		}
	}
	errs := make([]error, programs)
	done := make(chan struct{})
	go func() {
		clk.Go("driver", func() {
			procs := make([]*core.Process, programs)
			for i, prog := range progs {
				procs[i] = k.Submit(fmt.Sprintf("tenant-%d", i), prog)
			}
			for i, p := range procs {
				errs[i] = p.Wait()
			}
		})
		clk.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("simulation stalled at %v", clk.Now())
	}
	clk.Shutdown()
	return answers, errs
}

// TestPrefixCacheYieldsToWaiters: the prefix cache is a cache, so under
// GPU pressure its idle leaves go before a waiter at the space gate gives
// up. Programs that each fit the GPU tier alone must all complete at
// every tier size, with the answers an ample tier gives: a node chain the
// memory daemon cannot offload (its interior pages are shared) must not
// leave a prefill with nowhere to go.
func TestPrefixCacheYieldsToWaiters(t *testing.T) {
	want, errs := sharedPreambleRun(t, 1<<20)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ample tier: program %d: %v", i, err)
		}
	}
	for _, gpu := range []int{600, 900, 1200, 1600, 2400, 3200, 4800, 6400} {
		t.Run(fmt.Sprintf("gpu=%d", gpu), func(t *testing.T) {
			got, errs := sharedPreambleRun(t, gpu)
			failed := 0
			for i, err := range errs {
				if err != nil {
					failed++
					t.Errorf("program %d: %v", i, err)
				} else if !slices.Equal(got[i], want[i]) {
					t.Errorf("program %d answered %v, the ample tier %v", i, got[i], want[i])
				}
			}
			if failed > 0 {
				t.Errorf("%d of %d programs failed", failed, len(errs))
			}
		})
	}
}
