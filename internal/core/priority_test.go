package core

import (
	"testing"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// TestPredCarriesProcessPriority checks the end-to-end path: a priority
// set at process submission reaches the batch scheduler's lane counters
// on every pred the process issues.
func TestPredCarriesProcessPriority(t *testing.T) {
	clk, k := newKernel()
	drive(t, clk, func() {
		for _, prio := range []sched.Priority{sched.Interactive, sched.Batch} {
			p := k.SubmitWith("user", greedyComplete("hello world", 3), SubmitOptions{Priority: prio})
			if err := p.Wait(); err != nil {
				t.Errorf("%v process: %v", prio, err)
			}
			if p.Priority() != prio {
				t.Errorf("Priority() = %v, want %v", p.Priority(), prio)
			}
		}
	})
	st := k.Stats().Sched
	var inter, norm, batch int64
	for _, l := range st.Lanes {
		switch l.Lane {
		case "interactive":
			inter = l.Calls
		case "normal":
			norm = l.Calls
		case "batch":
			batch = l.Calls
		}
	}
	if inter == 0 || batch == 0 {
		t.Fatalf("lane calls interactive=%d batch=%d, want both > 0 (%+v)", inter, batch, st.Lanes)
	}
	if norm != 0 {
		t.Fatalf("normal lane saw %d calls from prioritized processes", norm)
	}
}

// TestPreemptedPredDoesNotPinKV checks scheduler/memory-daemon coherence:
// a batch process's long pred that sits preempted by interactive load
// must still complete, with every submitted token executed. That its KV
// file is unpinned (evictable) meanwhile is a state only a bystander actor
// can see — it lasts while an interactive step runs — and is asserted by
// TestPreemptedPredResumeBillsPromotion's "never found preempted" check,
// whose watcher must find the file submitted, unfinished and unpinned.
func TestPreemptedPredDoesNotPinKV(t *testing.T) {
	clk := simclock.New()
	bpt := model.A100Llama13B().KVBytesPerToken
	k := New(clk, Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		FS: kvfs.Config{
			PageTokens:    16,
			GPUBytes:      8192 * bpt,
			HostBytes:     8192 * bpt * 16,
			BytesPerToken: bpt,
		},
		KV: kvd.Config{Policy: "lru"},
		// A tight step budget without aging keeps the batch pred
		// preempted for as long as interactive calls keep arriving.
		PriorityPolicy: &sched.Lanes{SliceTokens: 16, MaxStepTokens: 16, AgeAfter: -1},
	})
	drive(t, clk, func() {
		batch := k.SubmitWith("batch", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			toks := make([]token.ID, 96)
			pos := make([]int, len(toks))
			for i := range toks {
				toks[i], pos[i] = token.ID(i+10), i
			}
			_, err = ctx.Pred(f, toks, pos)
			return err
		}, SubmitOptions{Priority: sched.Batch})

		inter := k.SubmitWith("inter", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			// Give the batch pred time to start stepping, then keep the
			// interactive lane saturated long enough that the batch call
			// is preempted at an iteration boundary.
			if err := ctx.Sleep(30 * time.Millisecond); err != nil {
				return err
			}
			for i := 0; i < 12; i++ {
				if _, err := ctx.Pred(f, []token.ID{token.ID(500 + i)}, []int{f.Len()}); err != nil {
					return err
				}
			}
			return nil
		}, SubmitOptions{Priority: sched.Interactive})

		if err := batch.Wait(); err != nil {
			t.Errorf("batch process: %v", err)
		}
		if err := inter.Wait(); err != nil {
			t.Errorf("interactive process: %v", err)
		}
	})
	st := k.Stats().Sched
	if st.Preemptions == 0 {
		t.Fatal("batch pred was never preempted")
	}
	if st.ExecutedTokens != st.Tokens {
		t.Fatalf("executed %d of %d submitted tokens", st.ExecutedTokens, st.Tokens)
	}
}

// TestPreemptedPredResumeBillsPromotion covers the second caller of the
// shared promote-and-bill path: the scheduler's resume hook. A batch pred
// sits preempted by interactive load; meanwhile the daemon offloads its
// file (and, with a disk tier, spills it). On resume the file must come
// back with the PCIe (or NVMe+PCIe) time charged to a GPU step — not
// slept by any thread — and the ledger must move exactly as it does when
// ensureResident finds a file in the same state.
func TestPreemptedPredResumeBillsPromotion(t *testing.T) {
	const n = 96
	cost := model.A100Llama13B()
	newK := func(disk bool) (*simclock.Clock, *Kernel) {
		clk := simclock.New()
		cfg := Config{
			Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
			FS: kvfs.Config{
				PageTokens:    16,
				GPUBytes:      8192 * cost.KVBytesPerToken,
				HostBytes:     8192 * cost.KVBytesPerToken,
				BytesPerToken: cost.KVBytesPerToken,
			},
			KV:             kvd.Config{Policy: "lru"},
			PriorityPolicy: &sched.Lanes{SliceTokens: 16, MaxStepTokens: 16, AgeAfter: -1},
		}
		if disk {
			// Any host residency at all crosses the spill watermark, so an
			// offload cascades straight down to the disk tier.
			cfg.Disk = DiskConfig{Bytes: 1 << 30, HighWater: 1e-6}
		}
		return clk, New(clk, cfg)
	}
	prompt := func() ([]token.ID, []int) {
		toks, pos := make([]token.ID, n), make([]int, n)
		for i := range toks {
			toks[i], pos[i] = token.ID(i+10), i
		}
		return toks, pos
	}
	// evict demotes the coldest unpinned file — the one under test — as far
	// as the kernel's tiers go.
	evict := func(k *Kernel, f *kvfs.File) {
		if k.KVD().Reclaim(1) != n || f.GPUResident() {
			t.Errorf("reclaim did not take the file under test")
		}
	}

	// preempted runs the batch-vs-interactive scenario of
	// TestPreemptedPredDoesNotPinKV. When asked to, a bystander evicts the
	// batch file the first time it finds it preempted (submitted,
	// unfinished, unpinned) — a state that lasts only while an interactive
	// step runs, so neither program's own thread can observe it.
	preempted := func(disk, doEvict bool) Stats {
		clk, k := newK(disk)
		evicted := !doEvict
		drive(t, clk, func() {
			var batchFile *kvfs.File
			batch := k.SubmitWith("batch", func(ctx *Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				batchFile = f
				defer f.Remove()
				toks, pos := prompt()
				_, err = ctx.Pred(f, toks, pos)
				return err
			}, SubmitOptions{Priority: sched.Batch})
			inter := k.SubmitWith("inter", func(ctx *Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				if err := ctx.Sleep(30 * time.Millisecond); err != nil {
					return err
				}
				for i := 0; i < 12; i++ {
					if _, err := ctx.Pred(f, []token.ID{token.ID(500 + i)}, []int{f.Len()}); err != nil {
						return err
					}
				}
				return nil
			}, SubmitOptions{Priority: sched.Interactive})
			watch := k.Submit("watch", func(ctx *Ctx) error {
				for !evicted && !batch.Done() {
					if batchFile != nil && batchFile.Len() == n && k.KVD().Pins(batchFile) == 0 {
						evicted = true
						evict(k, batchFile)
					}
					if err := ctx.Sleep(time.Millisecond); err != nil {
						return err
					}
				}
				return nil
			})
			for name, p := range map[string]*Process{"batch": batch, "interactive": inter, "watch": watch} {
				if err := p.Wait(); err != nil {
					t.Errorf("%s process: %v", name, err)
				}
			}
		})
		if !evicted {
			t.Errorf("batch pred was never found preempted")
		}
		return k.Stats()
	}

	// touched is the reference: the same file in the same state, found by
	// ensureResident (through KvFork) instead of by the resume hook.
	touched := func(disk bool) Stats {
		clk, k := newK(disk)
		drive(t, clk, func() {
			p := k.Submit("u", func(ctx *Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				toks, pos := prompt()
				if _, err := ctx.Pred(f, toks, pos); err != nil {
					return err
				}
				evict(k, f)
				_, err = ctx.KvFork(f)
				return err
			})
			if err := p.Wait(); err != nil {
				t.Errorf("reference process: %v", err)
			}
		})
		return k.Stats()
	}

	for _, tc := range []struct {
		name string
		disk bool
		bill time.Duration
	}{
		{"host", false, cost.TransferTime(n)},
		{"disk", true, cost.DiskLoadTime(n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			quiet, got, want := preempted(tc.disk, false), preempted(tc.disk, true), touched(tc.disk)
			if got.Sched.Preemptions == 0 || got.Sched.ExecutedTokens != got.Sched.Tokens {
				t.Fatalf("preemptions %d, executed %d of %d tokens", got.Sched.Preemptions, got.Sched.ExecutedTokens, got.Sched.Tokens)
			}
			// The bill landed on the GPU: the evicted run's steps are longer
			// than the quiet run's by exactly the promotion's price.
			if d := got.Sched.GPUBusy - quiet.Sched.GPUBusy; d != tc.bill || tc.bill <= 0 {
				t.Fatalf("resume charged %v to its step, want %v", d, tc.bill)
			}
			type ledger struct {
				restores, restoredTokens, diskLoads, diskLoadedTokens int64
				restoredCost, diskLoadCost, restoreTime               time.Duration
			}
			movement := func(s Stats) ledger {
				return ledger{s.KVD.Restores, s.KVD.RestoredTokens, s.KVD.DiskLoads, s.KVD.DiskLoadedTokens,
					s.KVD.RestoredCost, s.KVD.DiskLoadCost, s.RestoreTime}
			}
			if g, w := movement(got), movement(want); g != w {
				t.Fatalf("resume hook ledger = %+v, ensureResident's = %+v", g, w)
			}
			if l := movement(got); l.restoredCost+l.diskLoadCost != tc.bill || l.restoredTokens+l.diskLoadedTokens != n {
				t.Fatalf("ledger %+v does not account for %d tokens at %v", l, n, tc.bill)
			}
		})
	}
}
