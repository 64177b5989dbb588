package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// newTightKernel builds a kernel whose GPU tier holds 128 tokens of KV
// (eight 16-token pages, a roomy host tier) under an lru memory daemon.
func newTightKernel() (*simclock.Clock, *Kernel) {
	const gpuTokens = 128
	clk := simclock.New()
	bpt := model.A100Llama13B().KVBytesPerToken
	k := New(clk, Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		FS: kvfs.Config{
			PageTokens:    16,
			GPUBytes:      gpuTokens * bpt,
			HostBytes:     gpuTokens * bpt * 16,
			BytesPerToken: bpt,
		},
		KV: kvd.Config{Policy: "lru"},
	})
	return clk, k
}

// prefillAnon creates an anonymous KV file and prefills n tokens into it.
func prefillAnon(ctx *Ctx, n int) (*kvfs.File, error) {
	f, err := ctx.KvAnon()
	if err != nil {
		return nil, err
	}
	toks := make([]token.ID, n)
	pos := make([]int, n)
	for i := range toks {
		toks[i], pos[i] = token.ID(i+10), i
	}
	_, err = ctx.Pred(f, toks, pos)
	return f, err
}

// TestPredUnderPressureDoesNotWaitAheadOfAllocation pins that a full GPU
// tier costs a pred no virtual time by itself: a finished process left the
// tier full of cold, evictable files, and the next process's pred reclaims
// them on its own allocation path (metadata only, free) and returns after
// exactly the GPU step of its tokens — no wait ahead of the allocation,
// no failed allocation, no self-preemption.
func TestPredUnderPressureDoesNotWaitAheadOfAllocation(t *testing.T) {
	clk, k := newTightKernel()
	const n = 16
	var took time.Duration
	drive(t, clk, func() {
		cold := k.Submit("cold", func(ctx *Ctx) error {
			// Two leaked files fill all eight GPU pages.
			for i := 0; i < 2; i++ {
				if _, err := prefillAnon(ctx, 64); err != nil {
					return err
				}
			}
			return nil
		})
		if err := cold.Wait(); err != nil {
			t.Errorf("cold process: %v", err)
		}
		if p := k.Stats().KVD.Pressure; p < 0.95 {
			t.Errorf("pressure %.2f before the pred, want >= 0.95", p)
		}
		hot := k.Submit("hot", func(ctx *Ctx) error {
			start := clk.Now()
			_, err := prefillAnon(ctx, n)
			took = clk.Now() - start
			return err
		})
		if err := hot.Wait(); err != nil {
			t.Errorf("hot process: %v", err)
		}
	})
	if step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: n}}); took != step {
		t.Errorf("pred took %v, want its GPU step alone (%v)", took, step)
	}
	st := k.Stats()
	if st.KVD.Offloads == 0 || st.KVD.Preemptions != 0 || st.FS.OOMErrors != 0 {
		t.Errorf("offloads %d, preemptions %d, failed allocations %d; want > 0, 0, 0",
			st.KVD.Offloads, st.KVD.Preemptions, st.FS.OOMErrors)
	}
}

// TestShutdownDuringSpaceWaitIsNotErrNoSpace: a pred that cannot fit —
// the GPU tier is held by an advisory-locked, hence unevictable, file —
// waits for space, and a clock shutdown during that wait must surface as
// simclock.ErrShutdown, not as the allocation error the wait followed
// (the server answers that one 422, the program's fault).
func TestShutdownDuringSpaceWaitIsNotErrNoSpace(t *testing.T) {
	clk, k := newTightKernel()
	ready := clk.NewEvent()
	var predErr error
	done := make(chan struct{})
	clk.Go("driver", func() {
		k.Submit("holder", func(ctx *Ctx) error {
			defer ready.Fire()
			f, err := prefillAnon(ctx, 128)
			if err != nil {
				return err
			}
			if err := ctx.KvLock(f); err != nil {
				return err
			}
			ready.Fire()
			return ctx.Sleep(time.Hour)
		})
		if err := ready.Wait(); err != nil {
			t.Errorf("holder never ready: %v", err)
		}
		k.Submit("waiter", func(ctx *Ctx) error {
			defer close(done)
			_, predErr = prefillAnon(ctx, 16)
			return predErr
		})
		// Every instant from here on finds the waiter parked on the
		// space event, in withReclaim or in the self-preemption loop.
		if err := clk.Sleep(50 * time.Millisecond); err != nil {
			t.Errorf("driver sleep: %v", err)
		}
		clk.Shutdown()
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("waiter never returned: %v", clk.Snapshot())
	}
	if !errors.Is(predErr, simclock.ErrShutdown) || errors.Is(predErr, kvfs.ErrNoSpace) {
		t.Fatalf("pred returned %v, want simclock.ErrShutdown and not kvfs.ErrNoSpace", predErr)
	}
	if k.Stats().FS.OOMErrors == 0 {
		t.Fatal("the pred never failed an allocation: it was not waiting for space")
	}
}
