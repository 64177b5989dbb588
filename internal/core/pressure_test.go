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
		t.Fatalf("waiter never returned by %v", clk.Now())
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

// TestLockedTierEndsInErrNoSpace: a GPU tier filled by advisory-locked
// files that are never released — their holder exits still holding the
// locks — leaves the daemon nothing to evict. A pred that cannot fit must
// end in the space gate's typed failure, kvfs.ErrNoSpace, at the instant
// the standoff starts (nothing else can run, so nothing will be
// released), not hang; and it must leave its own file unpinned and the
// holder's files resident.
func TestLockedTierEndsInErrNoSpace(t *testing.T) {
	clk, k := newTightKernel()
	ready := clk.NewEvent()
	var held []*kvfs.File
	var waiterFile *kvfs.File
	var predErr error
	var took time.Duration
	drive(t, clk, func() {
		holder := k.Submit("holder", func(ctx *Ctx) error {
			defer ready.Fire()
			for i := 0; i < 2; i++ { // 2 × 64 tokens: all eight GPU pages
				f, err := prefillAnon(ctx, 64)
				if err != nil {
					return err
				}
				if err := ctx.KvLock(f); err != nil {
					return err
				}
				held = append(held, f)
			}
			return nil
		})
		if err := holder.Wait(); err != nil {
			t.Errorf("holder: %v", err)
			return
		}
		waiter := k.Submit("waiter", func(ctx *Ctx) error {
			start := clk.Now()
			waiterFile, predErr = prefillAnon(ctx, 16)
			took = clk.Now() - start
			return predErr
		})
		_ = waiter.Wait()
	})
	if !errors.Is(predErr, kvfs.ErrNoSpace) {
		t.Fatalf("pred returned %v, want kvfs.ErrNoSpace", predErr)
	}
	// The failed allocations and the self-preemption cost no virtual time.
	if took != 0 {
		t.Errorf("pred failed after %v, want 0: the standoff starts at its first failed allocation", took)
	}
	st := k.Stats()
	if st.FS.OOMErrors == 0 {
		t.Error("no failed allocation counted")
	}
	if n := waiterFile.Pins(); n != 0 {
		t.Errorf("waiter's file holds %d pins after the failure", n)
	}
	if st.KVD.Offloads != 0 {
		t.Errorf("daemon offloaded %d files with only locked files on the GPU", st.KVD.Offloads)
	}
	for i, f := range held {
		if !f.GPUResident() || f.LockedBy() == "" {
			t.Errorf("holder file %d: resident %v, locked by %q; want resident and still locked", i, f.GPUResident(), f.LockedBy())
		}
	}
}

// TestSpaceWaitOutlastsPageChurn: the space gate refuses only a standoff,
// never a wait however long. A locked file holds seven of the eight GPU
// pages for 20 s (longer than the 16.384 s retry budget the gate once
// had) while another process keeps freeing and retaking the eighth; a
// pred that needs two pages is kept out the whole time, yet something
// can always run, so it must get its space once the holder lets go
// instead of ending in ErrNoSpace while pages are still being freed.
func TestSpaceWaitOutlastsPageChurn(t *testing.T) {
	clk, k := newTightKernel()
	ready := clk.NewEvent()
	const churnFor = 20 * time.Second
	var predErr error
	var took time.Duration
	cycles := 0
	drive(t, clk, func() {
		holder := lockedHolder(k, ready, []int{112}, []time.Duration{churnFor})
		if err := ready.Wait(); err != nil {
			t.Errorf("holder never ready: %v", err)
		}
		start := clk.Now()
		churner := k.Submit("churner", func(ctx *Ctx) error {
			for clk.Now()-start < churnFor {
				f, err := prefillAnon(ctx, 16)
				if err != nil {
					return err
				}
				if err := ctx.KvLock(f); err != nil {
					return err
				}
				if err := ctx.Sleep(10 * time.Millisecond); err != nil {
					return err
				}
				if err := ctx.KvUnlock(f); err != nil {
					return err
				}
				if err := f.Remove(); err != nil {
					return err
				}
				cycles++
				if err := ctx.Sleep(time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		})
		waiter := k.Submit("waiter", func(ctx *Ctx) error {
			if err := ctx.Sleep(5 * time.Millisecond); err != nil {
				return err
			}
			_, predErr = prefillAnon(ctx, 32)
			took = clk.Now() - start
			return predErr
		})
		for name, p := range map[string]*Process{"holder": holder, "churner": churner, "waiter": waiter} {
			if err := p.Wait(); err != nil && p != waiter {
				t.Errorf("%s process: %v", name, err)
			}
		}
	})
	if predErr != nil {
		t.Fatalf("pred returned %v after %v and %d churn cycles, want space once the holder released the tier", predErr, took, cycles)
	}
	if took < churnFor {
		t.Errorf("pred returned %v after the start, before the holder released the tier at %v", took, churnFor)
	}
	if cycles == 0 {
		t.Error("the churner never freed a page")
	}
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

// TestSpaceGateRetriesOnEntry: a pred that queued at the space gate
// retries as soon as it holds the gate, not after the next KVFS release,
// because the space it waits for may have been freed while it queued. A
// locked file fills the GPU tier until 50 ms; two 16-token preds fail
// before then, the second queued behind the first. The one release at
// 50 ms is room for both, so the second gets its space when the first
// does and both prefill in the same GPU step.
func TestSpaceGateRetriesOnEntry(t *testing.T) {
	clk, k := newTightKernel()
	ready := clk.NewEvent()
	ends := map[string]time.Duration{}
	drive(t, clk, func() {
		holder := lockedHolder(k, ready, []int{128}, []time.Duration{50 * time.Millisecond})
		if err := ready.Wait(); err != nil {
			t.Errorf("holder never ready: %v", err)
		}
		waiter := func(name string, delay time.Duration) *Process {
			return k.Submit(name, func(ctx *Ctx) error {
				if err := ctx.Sleep(delay); err != nil {
					return err
				}
				_, err := prefillAnon(ctx, 16)
				ends[name] = clk.Now()
				return err
			})
		}
		first, second := waiter("first", 0), waiter("second", time.Millisecond)
		for name, p := range map[string]*Process{"holder": holder, "first": first, "second": second} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", name, err)
			}
		}
	})
	if ends["second"] != ends["first"] {
		t.Fatalf("second pred returned at %v, first at %v: want the same GPU step", ends["second"], ends["first"])
	}
}

// TestSpaceGateFreeEntryDoesNotRepeatFailure: a pred that fails on a tier
// full of never-released locked files takes the free gate with no other
// actor run since the failure, so it does not repeat the allocation: one
// failed allocation, then the standoff's ErrNoSpace.
func TestSpaceGateFreeEntryDoesNotRepeatFailure(t *testing.T) {
	clk, k := newTightKernel()
	ready := clk.NewEvent()
	var failed int64
	var predErr error
	drive(t, clk, func() {
		lockedHolder(k, ready, []int{128}, nil)
		if err := ready.Wait(); err != nil {
			t.Errorf("holder never ready: %v", err)
		}
		before := k.Stats().FS.OOMErrors
		waiter := k.Submit("waiter", func(ctx *Ctx) error {
			_, predErr = prefillAnon(ctx, 16)
			return predErr
		})
		_ = waiter.Wait()
		failed = k.Stats().FS.OOMErrors - before
	})
	if !errors.Is(predErr, kvfs.ErrNoSpace) {
		t.Fatalf("pred returned %v, want kvfs.ErrNoSpace", predErr)
	}
	if failed != 1 {
		t.Errorf("the pred failed %d allocations, want 1", failed)
	}
}

// TestSpaceGateRetriesAfterPartialRestore: a pred whose first try
// restores part of its file and sleeps that restore's bill lets other
// actors run before it fails, so on a free gate it still retries at once.
// Here the holder frees the tier during that sleep; a call that went
// straight to swapping itself out and waiting would find nothing left to
// wake it and fail with ErrNoSpace beside six free pages.
func TestSpaceGateRetriesAfterPartialRestore(t *testing.T) {
	clk, k := newTightKernel()
	offloaded, ready := clk.NewEvent(), clk.NewEvent()
	var predErr error
	drive(t, clk, func() {
		waiter := k.Submit("waiter", func(ctx *Ctx) error {
			f, err := prefillAnon(ctx, 64) // four pages, then all on the host
			if err == nil {
				_, err = f.Offload()
			}
			offloaded.Fire()
			if err != nil {
				return err
			}
			if err := ready.Wait(); err != nil {
				return err
			}
			toks, pos := make([]token.ID, 16), make([]int, 16)
			for i := range toks {
				toks[i], pos[i] = token.ID(i+200), 64+i
			}
			_, predErr = ctx.Pred(f, toks, pos)
			return predErr
		})
		if err := offloaded.Wait(); err != nil {
			t.Errorf("waiter never offloaded: %v", err)
		}
		// Six locked pages leave two for the restore; they go 1 µs later.
		holder := lockedHolder(k, ready, []int{96}, []time.Duration{time.Microsecond})
		for name, p := range map[string]*Process{"holder": holder, "waiter": waiter} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", name, err)
			}
		}
	})
	if predErr != nil {
		t.Fatalf("pred returned %v, want success", predErr)
	}
}

// TestCancelQueuedAtSpaceGate: a pred and a fork cancelled while they
// wait behind another pred at the space gate surface ErrCancelled, not the
// ErrNoSpace they queued on, hold no pin on their files, and leave the
// gate free.
func TestCancelQueuedAtSpaceGate(t *testing.T) {
	clk, k := newTightKernel()
	parentReady, ready := clk.NewEvent(), clk.NewEvent()
	var secondFile, parent *kvfs.File
	var secondErr, forkErr error
	gateFree := false
	drive(t, clk, func() {
		// The forker's parent waits on the host tier, so forking it needs
		// GPU pages the holder is about to take.
		forker := k.Submit("forker", func(ctx *Ctx) error {
			var err error
			parent, err = offloadedSource(ctx)
			parentReady.Fire()
			if err != nil {
				return err
			}
			if err := ctx.Sleep(2 * time.Millisecond); err != nil {
				return err
			}
			_, forkErr = ctx.KvFork(parent)
			return forkErr
		})
		if err := parentReady.Wait(); err != nil {
			t.Errorf("parent never ready: %v", err)
		}
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
		// The first waiter holds the gate, and the second and the fork are
		// queued behind it: all three have failed an allocation and the
		// holder frees nothing until 50 ms.
		if err := clk.Sleep(10 * time.Millisecond); err != nil {
			t.Errorf("driver sleep: %v", err)
		}
		if n := k.Stats().FS.OOMErrors; n < 3 {
			t.Errorf("%d failed allocations before the cancel, want all three waiters'", n)
		}
		second.Cancel()
		forker.Cancel()
		for name, p := range map[string]*Process{"holder": holder, "first": first} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", name, err)
			}
		}
		_ = second.Wait()
		_ = forker.Wait()
		if err := k.spaceGate.Acquire(1); err == nil {
			gateFree = true
			k.spaceGate.Release(1)
		}
	})
	for name, err := range map[string]error{"pred": secondErr, "fork": forkErr} {
		if !errors.Is(err, ErrCancelled) || errors.Is(err, kvfs.ErrNoSpace) {
			t.Errorf("cancelled %s returned %v, want ErrCancelled and not kvfs.ErrNoSpace", name, err)
		}
	}
	for name, f := range map[string]*kvfs.File{"pred": secondFile, "fork": parent} {
		if n := f.Pins(); n != 0 {
			t.Errorf("cancelled %s left %d pins on its file", name, n)
		}
	}
	if !gateFree {
		t.Fatal("the space gate was still held after every waiter returned")
	}
}

// offloadedSource prefills a 16-token file and moves it to the host tier,
// leaving the whole GPU tier free.
func offloadedSource(ctx *Ctx) (*kvfs.File, error) {
	f, err := prefillAnon(ctx, 16)
	if err != nil {
		return nil, err
	}
	if _, err := f.Offload(); err != nil {
		return nil, err
	}
	return f, nil
}

// waitsAtGateForPinnedTier runs op on a GPU tier whose every page an
// in-flight decode run has pinned. op's source is a 16-token file on the
// host tier, and op starts 10 ms into the run. Nothing is evictable
// until the run ends, so op's allocation fails, waits at the space gate
// and succeeds once the run's file has become evictable. It returns the
// file op built.
func waitsAtGateForPinnedTier(t *testing.T, op func(ctx *Ctx, src *kvfs.File) (*kvfs.File, error)) *kvfs.File {
	t.Helper()
	clk, k := newTightKernel()
	const gpuTokens = 128
	srcReady := clk.NewEvent()
	var runFile, built *kvfs.File
	var opEnd, runEnd time.Duration
	drive(t, clk, func() {
		hog := k.Submit("hog", func(ctx *Ctx) error {
			if err := srcReady.Wait(); err != nil {
				return err
			}
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			runFile = f
			toks, pos := make([]token.ID, gpuTokens), make([]int, gpuTokens)
			for i := range toks {
				toks[i], pos[i] = token.ID(i+10), i
			}
			_, err = ctx.PredDecode("", f, toks, pos, DecodeRun{})
			runEnd = clk.Now()
			return err
		})
		user := k.Submit("user", func(ctx *Ctx) error {
			src, err := offloadedSource(ctx)
			srcReady.Fire()
			if err != nil {
				return err
			}
			if err := ctx.Sleep(10 * time.Millisecond); err != nil {
				return err
			}
			if st := k.FS().Stats(); st.GPUPages != st.GPUPageCap || runFile.Pins() == 0 {
				t.Errorf("GPU tier %d of %d pages, run pins %d; want a full tier held by the in-flight run",
					st.GPUPages, st.GPUPageCap, runFile.Pins())
			}
			built, err = op(ctx, src)
			opEnd = clk.Now()
			return err
		})
		for name, p := range map[string]*Process{"hog": hog, "user": user} {
			if err := p.Wait(); err != nil {
				t.Errorf("%s process: %v", name, err)
			}
		}
	})
	if st := k.Stats(); st.FS.OOMErrors == 0 {
		t.Error("the call never failed an allocation: it did not wait for space")
	}
	if opEnd < runEnd {
		t.Errorf("call returned at %v, before the run that pins the tier ended at %v", opEnd, runEnd)
	}
	return built
}

// TestForkOfOffloadedParentWaitsForSpace: restoring a host-offloaded
// parent to fork it queues at the space gate, like a pred, instead of
// surfacing ErrNoSpace.
func TestForkOfOffloadedParentWaitsForSpace(t *testing.T) {
	child := waitsAtGateForPinnedTier(t, func(ctx *Ctx, src *kvfs.File) (*kvfs.File, error) {
		return ctx.KvFork(src)
	})
	if child == nil || child.Len() != 16 || !child.GPUResident() {
		t.Fatalf("fork = %v, want a GPU-resident 16-token child", child)
	}
}

// TestExtractWaitsForSpace: KvExtract's new file waits at the space gate.
func TestExtractWaitsForSpace(t *testing.T) {
	child := waitsAtGateForPinnedTier(t, func(ctx *Ctx, src *kvfs.File) (*kvfs.File, error) {
		return ctx.KvExtract(src, []int{0, 2, 4, 6, 8, 10, 12, 14})
	})
	if child == nil || child.Len() != 8 {
		t.Fatalf("extract = %v, want an 8-token file", child)
	}
}

// TestMergeWaitsForSpace: KvMerge's new file waits at the space gate.
func TestMergeWaitsForSpace(t *testing.T) {
	child := waitsAtGateForPinnedTier(t, func(ctx *Ctx, src *kvfs.File) (*kvfs.File, error) {
		return ctx.KvMerge(src, src)
	})
	if child == nil || child.Len() != 32 {
		t.Fatalf("merge = %v, want a 32-token file", child)
	}
}
