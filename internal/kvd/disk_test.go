package kvd_test

import (
	"testing"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/simclock"
)

// newTieredFS returns a three-tier file system plus its DiskTier: a GPU
// tier of gpuTokens, a host tier hostTokens, and a disk tier diskTokens
// wide, over an unbilled snapshot store.
func newTieredFS(gpuTokens, hostTokens, diskTokens int) (*kvfs.FS, *kvfs.DiskTier) {
	const bpt = 1 << 10
	fs := kvfs.NewFS(kvfs.Config{
		PageTokens:    16,
		GPUBytes:      int64(gpuTokens) * bpt,
		HostBytes:     int64(hostTokens) * bpt,
		DiskBytes:     int64(diskTokens) * bpt,
		BytesPerToken: bpt,
	})
	store := kvstore.NewStore(kvstore.NewSimFS(nil, model.CostModel{}))
	return fs, kvfs.NewDiskTier(fs, store)
}

// TestReclaimCascadesToDisk drives GPU pressure high enough that the
// offloads themselves overflow the host watermark, and checks the
// daemon demotes the coldest host files on to the disk tier.
func TestReclaimCascadesToDisk(t *testing.T) {
	clk := simclock.New()
	// GPU 16 pages, host 20. From the fourth 4-page file on, each fill
	// crosses the GPU high-water mark and offloads one file; the fifth
	// offload fills the host, which spills down to its low-water mark.
	fs, dt := newTieredFS(256, 320, 4096)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})
	d.AttachDisk(dt)

	var spills, loads []kvd.Event
	files := make([]*kvfs.File, 0, 8)
	for i := 0; i < 8; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 64)
		d.Track(f, 1+i, func(ev kvd.Event) {
			switch ev.Phase {
			case "spill":
				spills = append(spills, ev)
			case "load":
				loads = append(loads, ev)
			}
		})
		files = append(files, f)
		d.MaybeReclaim()
	}

	st := d.Stats()
	if st.Spills == 0 || st.SpilledTokens == 0 {
		t.Fatalf("no spills after cascading pressure: %+v", st)
	}
	if len(spills) == 0 {
		t.Fatal("no spill events delivered")
	}
	fst := fs.Stats()
	if fst.DiskPages == 0 {
		t.Fatal("no disk pages reserved after spills")
	}
	if float64(fst.HostPages) >= kvd.DiskHighWater*float64(fst.HostPageCap) {
		t.Fatalf("host still above watermark after spill: %d/%d", fst.HostPages, fst.HostPageCap)
	}

	// A spilled file comes back through PromoteDisk; the daemon hears
	// about it via NoteDiskLoad and fires a "load" event.
	var spilled *kvfs.File
	for _, f := range files {
		if _, _, disk := f.ResidentTokens(); disk > 0 {
			spilled = f
			break
		}
	}
	if spilled == nil {
		t.Fatal("no disk-resident file found")
	}
	n, err := spilled.PromoteDisk()
	if err != nil || n == 0 {
		t.Fatalf("promote = %d, %v", n, err)
	}
	cost := model.A100Llama13B().DiskLoadTime(n)
	if cost <= 0 {
		t.Fatal("disk load cost should be positive")
	}
	d.NoteDiskLoad(spilled, n, cost)
	st = d.Stats()
	if st.DiskLoads != 1 || st.DiskLoadedTokens != int64(n) || st.DiskLoadCost != cost {
		t.Fatalf("disk load ledger = %+v", st)
	}
	if len(loads) != 1 || loads[0].Tokens != n {
		t.Fatalf("load events = %+v", loads)
	}
}

// TestSpillInertWithoutDisk pins down that the spill path never fires
// without an attached disk tier, whatever the watermarks say.
func TestSpillInertWithoutDisk(t *testing.T) {
	clk := simclock.New()
	// A host tier of one 2-page file: the first offload fills it past
	// kvd.DiskHighWater.
	fs, _ := newTieredFS(128, 32, 1024)
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})
	for i := 0; i < 4; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 32)
		d.Track(f, 1+i, nil)
		d.MaybeReclaim()
	}
	if st := d.Stats(); st.Offloads == 0 || st.Spills != 0 {
		t.Fatalf("want offloads and no spill without a disk tier: %+v", st)
	}
	if st := fs.Stats(); st.HostPages != st.HostPageCap || st.DiskPages != 0 {
		t.Fatalf("host %d/%d pages, disk %d: want a full host tier and no disk pages", st.HostPages, st.HostPageCap, st.DiskPages)
	}
}
