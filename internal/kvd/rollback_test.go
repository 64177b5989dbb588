package kvd_test

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/simclock"
)

// TestFailedCommitRollsBackSpill pins the failed-publish path: pages the
// daemon spilled host→disk have no durable copy until a snapshot
// generation commits, so when the commit fails (an injected sync error),
// the spill must roll back — pages return to the host tier, the daemon's
// spill ledger reverses, and the owning process hears a "spill-rollback"
// event. Before the rollback, a failed commit left the ledger counting
// the pages disk-resident and a later PromoteDisk would "read" bytes the
// device never acknowledged.
func TestFailedCommitRollsBackSpill(t *testing.T) {
	const bpt = 1 << 10
	clk := simclock.New()
	fs := kvfs.NewFS(kvfs.Config{
		PageTokens:    16,
		GPUBytes:      256 * bpt,
		HostBytes:     320 * bpt,
		DiskBytes:     4096 * bpt,
		BytesPerToken: bpt,
	})
	inj := chaos.New(nil, 1)
	ffs := chaos.NewFaultFS(kvstore.NewSimFS(nil, model.CostModel{}), inj)
	dt := kvfs.NewDiskTier(fs, kvstore.NewStore(ffs))
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})
	d.AttachDisk(dt)

	// Cascade enough pressure that host spills to disk (the shape of
	// TestReclaimCascadesToDisk).
	var rollbacks []kvd.Event
	files := make([]*kvfs.File, 0, 8)
	for i := 0; i < 8; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 64)
		d.Track(f, 1+i, func(ev kvd.Event) {
			if ev.Phase == "spill-rollback" {
				rollbacks = append(rollbacks, ev)
			}
		})
		files = append(files, f)
		d.MaybeReclaim()
	}
	st := d.Stats()
	if st.Spills == 0 || st.SpilledTokens == 0 {
		t.Fatalf("no spills to roll back: %+v", st)
	}
	spilledBefore := st.SpilledTokens
	diskBefore := 0
	for _, f := range files {
		_, _, disk := f.ResidentTokens()
		diskBefore += disk
	}
	if diskBefore == 0 {
		t.Fatal("no disk-resident tokens before commit")
	}

	// The snapshot publish fails at Sync: nothing durable landed.
	inj.Arm(chaos.Rule{Point: "file.sync", Err: true})
	if err := dt.Commit(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("commit err = %v, want the injected sync failure", err)
	}

	// Every spilled page is back on host: none of the tracked files may
	// claim disk residency for bytes the device never acknowledged.
	for i, f := range files {
		if _, _, disk := f.ResidentTokens(); disk != 0 {
			t.Fatalf("file %d still has %d disk-resident tokens after failed commit", i, disk)
		}
	}
	st = d.Stats()
	if st.SpillRollbacks == 0 {
		t.Fatalf("ledger shows no rollbacks: %+v", st)
	}
	if st.SpilledTokens != spilledBefore-int64(diskBefore) {
		t.Fatalf("SpilledTokens = %d after rollback, want %d - %d",
			st.SpilledTokens, spilledBefore, diskBefore)
	}
	got := 0
	for _, ev := range rollbacks {
		got += ev.Tokens
	}
	if got != diskBefore {
		t.Fatalf("spill-rollback events cover %d tokens, want %d", got, diskBefore)
	}

	// The faulted round left the store uncommitted, not corrupted: with
	// the one-shot rule spent, a retried commit succeeds.
	if err := dt.Commit(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
}
