package core

import (
	"testing"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// newDiskKernel builds a kernel with a disk tier over vfs.
func newDiskKernel(vfs kvstore.VFS) (*simclock.Clock, *Kernel) {
	clk := simclock.New()
	k := New(clk, Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		KV:     kvd.Config{Policy: "lru"},
		Disk:   DiskConfig{Bytes: 1 << 30, FS: vfs},
	})
	return clk, k
}

// buildPrefix runs a LIP that creates a named shared prefix of n tokens.
func buildPrefix(t *testing.T, k *Kernel, path string, n int) {
	t.Helper()
	p := k.Submit("admin", func(ctx *Ctx) error {
		f, err := ctx.KvCreate(path, kvfs.ModeShared)
		if err != nil {
			return err
		}
		toks := make([]token.ID, n)
		pos := make([]int, n)
		for i := range toks {
			toks[i] = token.ID(100 + i)
			pos[i] = i
		}
		_, err = ctx.Pred(f, toks, pos)
		return err
	})
	if err := p.Wait(); err != nil {
		t.Errorf("prefix build: %v", err)
	}
}

// TestWarmRestartRoundTrip is the end-to-end disk-tier path: build a
// named prefix, checkpoint, crash, boot a second kernel over the same
// simulated disk, recover, and pred against the recovered prefix.
func TestWarmRestartRoundTrip(t *testing.T) {
	vfs := kvstore.NewSimFS(nil, model.Llama13B().Cost)

	clk1, k1 := newDiskKernel(vfs)
	var wantTail model.CtxHash
	drive(t, clk1, func() {
		buildPrefix(t, k1, "/kv/sys", 64)
		f, err := k1.FS().Open("/kv/sys", kvfs.Admin, false)
		if err != nil {
			t.Error(err)
			return
		}
		wantTail = f.Tail()
		files, cerr := k1.CheckpointKV()
		if cerr != nil {
			t.Errorf("checkpoint: %v", cerr)
		}
		if files != 1 {
			t.Errorf("checkpointed %d files, want 1", files)
		}
	})

	// Crash: anything unsynced is lost; the committed snapshot survives.
	vfs.Crash()

	clk2, k2 := newDiskKernel(vfs)
	drive(t, clk2, func() {
		files, tokens, rerr := k2.RecoverKV()
		if rerr != nil {
			t.Errorf("recover: %v", rerr)
		}
		if files != 1 || tokens != 64 {
			t.Errorf("recovered %d files / %d tokens, want 1/64", files, tokens)
		}
		// Recovery billed virtual disk read time for index + payload.
		if clk2.Now() == 0 {
			t.Error("recovery was free; snapshot reads must bill disk time")
		}

		f, err := k2.FS().Open("/kv/sys", kvfs.Admin, false)
		if err != nil {
			t.Errorf("recovered file missing: %v", err)
			return
		}
		if f.GPUResident() {
			t.Error("recovered file should be disk-resident, not on GPU")
		}
		if f.Tail() != wantTail {
			t.Error("recovered context hash differs")
		}

		// A pred against the recovered prefix loads it back from disk and
		// extends it.
		p := k2.Submit("admin", func(ctx *Ctx) error {
			g, err := ctx.KvOpen("/kv/sys", true)
			if err != nil {
				return err
			}
			_, err = ctx.Pred(g, []token.ID{7}, []int{g.Len()})
			return err
		})
		if err := p.Wait(); err != nil {
			t.Errorf("pred on recovered prefix: %v", err)
		}
		if !f.GPUResident() {
			t.Error("prefix not promoted by pred")
		}
		st := k2.Stats()
		if st.KVD.DiskLoads == 0 || st.KVD.DiskRecomputes != 0 {
			t.Errorf("disk loads %d, recomputes %d; want a load and no recompute: %+v",
				st.KVD.DiskLoads, st.KVD.DiskRecomputes, st.KVD)
		}
		if st.FS.DiskPages == 0 {
			t.Error("durable copy should keep its disk reservation after promote")
		}
	})
}

// TestCheckpointCrashFallback loses an unsynced second checkpoint and
// recovers the first: the publish protocol's fallback, end to end
// through the kernel.
func TestCheckpointCrashFallback(t *testing.T) {
	vfs := kvstore.NewSimFS(nil, model.Llama13B().Cost)

	clk1, k1 := newDiskKernel(vfs)
	drive(t, clk1, func() {
		buildPrefix(t, k1, "/kv/a", 32)
		if _, err := k1.CheckpointKV(); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})

	// Second incarnation adds a file and checkpoints — but the directory
	// entry never syncs (we crash the VFS mid-publish by reverting the
	// unsynced rename).
	clk2, k2 := newDiskKernel(vfs)
	drive(t, clk2, func() {
		if _, _, err := k2.RecoverKV(); err != nil {
			t.Errorf("recover: %v", err)
		}
		buildPrefix(t, k2, "/kv/b", 32)
	})
	// No CheckpointKV call: /kv/b was never published. Crash.
	vfs.Crash()

	clk3, k3 := newDiskKernel(vfs)
	drive(t, clk3, func() {
		files, _, err := k3.RecoverKV()
		if err != nil {
			t.Errorf("recover after crash: %v", err)
		}
		if files != 1 {
			t.Errorf("recovered %d files, want 1 (/kv/a only)", files)
		}
		if _, err := k3.FS().Open("/kv/a", kvfs.Admin, false); err != nil {
			t.Errorf("/kv/a lost: %v", err)
		}
		if _, err := k3.FS().Open("/kv/b", kvfs.Admin, false); err == nil {
			t.Error("/kv/b survived without a checkpoint")
		}
	})
}
