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
		// Every instant from here on finds the waiter holding the space
		// gate, parked on the space event between self-preemption
		// retries.
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

// lockedHolder submits a process that prefills one advisory-locked, hence
// unevictable, file per entry of sizes, fires ready, then after each
// entry of releases sleeps that long and removes the next file in order.
// Removal frees the file's GPU pages and fires the space event.
func lockedHolder(k *Kernel, ready *simclock.Event, sizes []int, releases []time.Duration) *Process {
	return k.Submit("holder", func(ctx *Ctx) error {
		defer ready.Fire()
		var files []*kvfs.File
		for _, n := range sizes {
			f, err := prefillAnon(ctx, n)
			if err != nil {
				return err
			}
			if err := ctx.KvLock(f); err != nil {
				return err
			}
			files = append(files, f)
		}
		ready.Fire()
		for i, d := range releases {
			if err := ctx.Sleep(d); err != nil {
				return err
			}
			if err := ctx.KvUnlock(files[i]); err != nil {
				return err
			}
			if err := files[i].Remove(); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestSpaceWaitersRetryInFailureOrder pins the space gate's order: two
// preds that fail on a full GPU tier get space in the order they failed,
// even when the later one would fit first. The tier is held by two
// locked files; the first one freed (one page) is room for the second
// waiter's 16 tokens but not the first's 96, so the second waiter stays
// queued behind the first until the rest of the tier is freed.
func TestSpaceWaitersRetryInFailureOrder(t *testing.T) {
	clk, k := newTightKernel()
	ready := clk.NewEvent()
	const firstFree, restFree = 50 * time.Millisecond, 100 * time.Millisecond
	var order []string
	var secondDone time.Duration
	drive(t, clk, func() {
		holder := lockedHolder(k, ready, []int{16, 112}, []time.Duration{firstFree, restFree - firstFree})
		if err := ready.Wait(); err != nil {
			t.Errorf("holder never ready: %v", err)
		}
		start := clk.Now()
		waiter := func(name string, delay time.Duration, n int) *Process {
			return k.Submit(name, func(ctx *Ctx) error {
				if err := ctx.Sleep(delay); err != nil {
					return err
				}
				_, err := prefillAnon(ctx, n)
				order = append(order, name)
				if name == "second" {
					secondDone = clk.Now() - start
				}
				return err
			})
		}
		first, second := waiter("first", 0, 96), waiter("second", time.Millisecond, 16)
		for name, p := range map[string]*Process{"holder": holder, "first": first, "second": second} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", name, err)
			}
		}
	})
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("preds returned in order %v, want [first second]", order)
	}
	if secondDone < restFree {
		t.Fatalf("second waiter returned %v after the start, ahead of the first waiter's space at %v", secondDone, restFree)
	}
	if st := k.Stats(); st.FS.OOMErrors < 2 || st.KVD.Preemptions != 0 {
		t.Fatalf("failed allocations %d, preemptions %d; want both waiters failed, nothing to swap", st.FS.OOMErrors, st.KVD.Preemptions)
	}
}

// TestCancelQueuedAtSpaceGate: a pred cancelled while it waits behind
// another at the space gate surfaces ErrCancelled, not the ErrNoSpace it
// queued on, holds no pin on its file, and leaves the gate free.
func TestCancelQueuedAtSpaceGate(t *testing.T) {
	clk, k := newTightKernel()
	ready := clk.NewEvent()
	var secondFile *kvfs.File
	var secondErr error
	gateFree := false
	drive(t, clk, func() {
		holder := lockedHolder(k, ready, []int{128}, []time.Duration{50 * time.Millisecond})
		if err := ready.Wait(); err != nil {
			t.Errorf("holder never ready: %v", err)
		}
		first := k.Submit("first", func(ctx *Ctx) error {
			_, err := prefillAnon(ctx, 16)
			return err
		})
		second := k.Submit("second", func(ctx *Ctx) error {
			if err := ctx.Sleep(time.Millisecond); err != nil {
				return err
			}
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			secondFile = f
			_, secondErr = ctx.Pred(f, []token.ID{10}, []int{0})
			return secondErr
		})
		// The first waiter holds the gate and the second is queued behind
		// it: both have failed an allocation and the holder frees nothing
		// until 50 ms.
		if err := clk.Sleep(10 * time.Millisecond); err != nil {
			t.Errorf("driver sleep: %v", err)
		}
		if n := k.Stats().FS.OOMErrors; n < 2 {
			t.Errorf("%d failed allocations before the cancel, want both waiters'", n)
		}
		second.Cancel()
		for name, p := range map[string]*Process{"holder": holder, "first": first} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", name, err)
			}
		}
		_ = second.Wait()
		if err := k.spaceGate.Acquire(1); err == nil {
			gateFree = true
			k.spaceGate.Release(1)
		}
	})
	if !errors.Is(secondErr, ErrCancelled) || errors.Is(secondErr, kvfs.ErrNoSpace) {
		t.Fatalf("cancelled pred returned %v, want ErrCancelled and not kvfs.ErrNoSpace", secondErr)
	}
	if n := secondFile.Pins(); n != 0 {
		t.Fatalf("cancelled pred left %d pins on its file", n)
	}
	if !gateFree {
		t.Fatal("the space gate was still held after every waiter returned")
	}
}
