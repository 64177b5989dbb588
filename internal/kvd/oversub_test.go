package kvd_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// drive runs fn as the root actor of clk and blocks until the simulation
// quiesces.
func drive(t *testing.T, clk *simclock.Clock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		clk.Go("root", fn)
		clk.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stalled at %v", clk.Now())
	}
	clk.Shutdown()
}

// TestOversubscriptionSurvival is the acceptance bar for the memory
// daemon: a workload whose KV working set is 3x the GPU tier completes
// with zero program-visible ErrNoSpace failures, because the kernel
// transparently offloads cold files and restores them on the next access.
// The lru subtest names the daemon's one eviction order explicitly in its
// config, the one value besides "" that kvd.Config.Policy still accepts.
func TestOversubscriptionSurvival(t *testing.T) {
	t.Run("lru", func(t *testing.T) { oversubscribe(t, kvd.Config{Policy: "lru"}) })
}

func oversubscribe(t *testing.T, kv kvd.Config) {
	const (
		gpuTokens = 512 // 32 pages of 16 tokens
		clients   = 16
		rounds    = 4
		chunk     = 24 // per round; 16*4*24 = 1536 tokens = 3x GPU
		bpt       = 1 << 10
	)
	clk := simclock.New()
	k := core.New(clk, core.Config{
		Models: map[string]*model.Model{"m": model.New(model.Llama13B())},
		FS: kvfs.Config{
			PageTokens:    16,
			GPUBytes:      gpuTokens * bpt,
			HostBytes:     gpuTokens * bpt * 16,
			BytesPerToken: bpt,
		},
		KV: kv,
	})

	var (
		mu   sync.Mutex
		errs []error
	)
	drive(t, clk, func() {
		wg := clk.NewWaitGroup()
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			p := k.Submit(fmt.Sprintf("user-%d", c), func(ctx *core.Ctx) error {
				// Stagger arrivals so the closed loop does not
				// phase-lock every client into the same pred.
				if err := ctx.Sleep(time.Duration(c) * 7 * time.Millisecond); err != nil {
					return err
				}
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				for r := 0; r < rounds; r++ {
					toks := make([]token.ID, chunk)
					pos := make([]int, chunk)
					for i := range toks {
						toks[i] = token.ID(c*1000 + r*100 + i)
						pos[i] = f.Len() + i
					}
					if _, err := ctx.Pred(f, toks, pos); err != nil {
						return fmt.Errorf("client %d round %d: %w", c, r, err)
					}
					if err := ctx.Sleep(40 * time.Millisecond); err != nil {
						return err
					}
				}
				return nil
			})
			clk.Go("join", func() {
				defer wg.Done()
				if err := p.Wait(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			})
		}
		wg.Wait()
	})

	for _, err := range errs {
		t.Errorf("program failed: %v", err)
	}
	st := k.Stats()
	if st.KVD.Policy != "lru" {
		t.Fatalf("stats policy = %q", st.KVD.Policy)
	}
	// 3x oversubscription cannot fit: the daemon must have offloaded, and
	// programs that came back must have restored.
	if st.KVD.Offloads == 0 || st.KVD.OffloadedTokens == 0 {
		t.Fatalf("no offloads under pressure: %+v", st.KVD)
	}
	if st.KVD.Restores+st.KVD.SwapRestores == 0 {
		t.Fatalf("no transparent restores: %+v", st.KVD)
	}
	if st.FS.GPUPeakPages > st.FS.GPUPageCap {
		t.Fatalf("GPU tier overcommitted: peak %d of %d", st.FS.GPUPeakPages, st.FS.GPUPageCap)
	}
}
