package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simclock"
)

// RestartConfig parameterizes the warm-restart sweep: a warm kernel
// builds a set of named shared prefixes, checkpoints them to the durable
// disk KV tier (internal/kvstore), and crashes; a second kernel then
// boots over the same simulated disk and serves one request per family.
// The sweep compares two restart modes on identical workloads:
//
//   - "disk": the restarted kernel recovers the committed snapshot and
//     serves each first request by loading the prefix from disk (NVMe
//     read plus PCIe).
//   - "recompute": no durable tier — the restarted kernel rebuilds every
//     prefix from tokens, paying full prefill compute.
//
// The figure of merit is post-restart TTFT: virtual time from boot to
// each family's first generated token. Disk loads from independent
// families overlap, while recompute prefills serialize on GPU compute,
// so the disk tier's advantage grows with the family count.
type RestartConfig struct {
	// Families is the number of distinct named prefixes checkpointed by
	// the warm kernel; the restarted kernel serves one request each.
	Families int
	// PrefixTokens is the length of each named prefix.
	PrefixTokens int
	// SuffixTokens is the unique prefill each post-restart request adds
	// before decoding.
	SuffixTokens int
	// DecodeTokens is the per-request decode length.
	DecodeTokens int
	// DiskGB sizes the durable disk tier in GiB.
	DiskGB float64
	// Modes lists the restart modes to compare ("recompute", "disk").
	Modes []string
	// Seed offsets the deterministic workload streams (see seedBase); 0
	// and 1 both select the recorded baseline.
	Seed int64
}

// DefaultRestart returns the sweep used by symphony-bench -exp restart.
func DefaultRestart() RestartConfig {
	return RestartConfig{
		Families:     8,
		PrefixTokens: 1536,
		SuffixTokens: 8,
		DecodeTokens: 2,
		DiskGB:       16,
		Modes:        []string{"recompute", "disk"},
		Seed:         1,
	}
}

// QuickRestart returns a reduced sweep for -quick and the test suite.
func QuickRestart() RestartConfig {
	c := DefaultRestart()
	c.Families = 6
	c.PrefixTokens = 768
	return c
}

// RestartPoint is one restart mode's measurement.
type RestartPoint struct {
	Mode     string
	Families int
	// Completed counts families whose post-restart request finished;
	// NoSpaceErrors counts program-visible ErrNoSpace failures (the
	// acceptance bar is zero) and OtherErrors everything else.
	Completed     int
	NoSpaceErrors int
	OtherErrors   int
	// RecoveredFiles/RecoveredTokens report what RecoverKV re-imported
	// from the snapshot store (zero under recompute).
	RecoveredFiles  int
	RecoveredTokens int
	// TTFTMean/TTFTMax summarize per-family time to first generated
	// token, measured from the restarted kernel's boot.
	TTFTMean time.Duration
	TTFTMax  time.Duration
	// Makespan covers boot to last request done; Throughput is virtual
	// requests per second over it.
	Makespan   time.Duration
	Throughput float64
	// Speedup is the TTFT advantage vs the recompute row (1 when absent).
	Speedup float64
	// Daemon disk ledger for the restarted kernel.
	Spills           int64
	DiskLoads        int64
	DiskLoadedTokens int64
	DiskLoadCost     time.Duration
	// DiskPages is the snapshot-store footprint still reserved when the
	// run ends: promoted prefixes keep their durable copy.
	DiskPages int
}

// RunRestart sweeps the restart modes over the same crash.
func RunRestart(cfg RestartConfig) []RestartPoint {
	var out []RestartPoint
	for _, m := range cfg.Modes {
		out = append(out, runRestartCell(cfg, m))
	}
	normalize(out, func(_, q *RestartPoint) bool { return q.Mode == "recompute" },
		func(p, base *RestartPoint) { p.Speedup = ratio(base.TTFTMean, p.TTFTMean) })
	return out
}

// durableKernel edits a kernel config for one incarnation over the
// shared simulated disk vfs: host headroom on top of the default pool
// (capacity stays out of the picture — every family prefix fits on the
// GPU at once, so zero ErrNoSpace holds), the lru daemon, and a disk
// tier of diskBytes (zero disables it).
func durableKernel(vfs kvstore.VFS, diskBytes int64) func(*core.Config) {
	return func(kc *core.Config) {
		kc.FS.HostBytes = 64 << 30
		kc.KV = kvd.Config{Policy: "lru"}
		kc.Disk = core.DiskConfig{Bytes: diskBytes, FS: vfs}
	}
}

// restartPrefix creates and prefills one family's named prefix from its
// deterministic token stream — the warm build and the recompute rebuild
// replay the same stream so both incarnations produce the same context.
func restartPrefix(ctx *core.Ctx, cfg RestartConfig, fam int) (*kvfs.File, error) {
	f, err := ctx.KvCreate(fmt.Sprintf("fam-%d", fam), kvfs.ModeShared)
	if err != nil {
		return nil, err
	}
	return f, synthPred(ctx, f, cfg.PrefixTokens, seedBase(cfg.Seed)+1_000_000+fam*100_000)
}

// runRestartCell measures one restart mode: warm build + checkpoint +
// crash, then a restarted kernel serving one request per family.
func runRestartCell(cfg RestartConfig, mode string) RestartPoint {
	diskBytes := int64(cfg.DiskGB * float64(1<<30))
	vfs := kvstore.NewSimFS(nil, model.Llama13B().Cost)

	// Phase 1 — the warm incarnation: build every family's named prefix
	// and commit a snapshot. Identical in both modes; only the restarted
	// kernel differs.
	warmClk := simclock.New()
	warm := newKernel(warmClk, durableKernel(vfs, diskBytes))
	var warmErr error
	drive(warmClk, func() {
		warmErr = warm.Submit("admin", func(ctx *core.Ctx) error {
			for fam := 0; fam < cfg.Families; fam++ {
				if _, err := restartPrefix(ctx, cfg, fam); err != nil {
					return err
				}
			}
			return nil
		}).Wait()
		if warmErr == nil {
			_, warmErr = warm.CheckpointKV()
		}
	})
	if warmErr != nil {
		panic(fmt.Sprintf("experiments: restart warm phase (%s): %v", mode, warmErr))
	}

	// Crash: anything unsynced is gone; the committed snapshot survives.
	vfs.Crash()

	// Phase 2 — the restarted incarnation. Its clock starts at zero: the
	// restart epoch every TTFT is measured from.
	if mode == "recompute" {
		diskBytes = 0
	}
	c := newCell(simclock.New(), durableKernel(vfs, diskBytes))

	var (
		mu    sync.Mutex
		ttfts []time.Duration
	)
	pt := RestartPoint{Mode: mode, Families: cfg.Families}
	c.run(func() {
		if mode == "disk" {
			files, tokens, err := c.k.RecoverKV()
			if err != nil {
				panic(fmt.Sprintf("experiments: restart recover: %v", err))
			}
			pt.RecoveredFiles, pt.RecoveredTokens = files, tokens
		}
		c.clients(population{
			User:    numbered("fam%d"),
			Clients: cfg.Families,
			Program: func(ctx *core.Ctx, fam int) error {
				var parent *kvfs.File
				var err error
				if mode == "disk" {
					// The prefix survived the crash: open it read-only.
					// Forking promotes it from disk (an overlapping NVMe
					// load) before the request's own prefill starts.
					parent, err = ctx.KvOpen(fmt.Sprintf("fam-%d", fam), false)
				} else {
					// No durable tier: rebuild the prefix from tokens,
					// paying full prefill compute before the request can
					// start.
					parent, err = restartPrefix(ctx, cfg, fam)
				}
				if err != nil {
					return err
				}
				fork, err := ctx.KvFork(parent)
				if err != nil {
					return err
				}
				defer fork.Remove()
				seed := seedBase(cfg.Seed) + 2_000_000 + fam*100_000
				if err := synthPred(ctx, fork, cfg.SuffixTokens, seed); err != nil {
					return err
				}
				// TTFT: the first decode position retired.
				timed := false
				return synthDecode(ctx, fork, cfg.DecodeTokens, seed+500, func(int) {
					if !timed {
						timed = true
						mu.Lock()
						ttfts = append(ttfts, ctx.Clock().Now())
						mu.Unlock()
					}
				})
			},
		})
	})

	st := c.k.Stats()
	pt.Completed = c.procs.completed
	pt.NoSpaceErrors = c.procs.noSpace
	pt.OtherErrors = c.procs.otherErrs
	pt.Makespan = c.procs.last
	pt.Throughput = perSecond(pt.Completed, pt.Makespan)
	pt.Spills = st.KVD.Spills
	pt.DiskLoads = st.KVD.DiskLoads
	pt.DiskLoadedTokens = st.KVD.DiskLoadedTokens
	pt.DiskLoadCost = st.KVD.DiskLoadCost
	pt.DiskPages = st.FS.DiskPages
	var sum time.Duration
	for _, t := range ttfts {
		sum += t
		if t > pt.TTFTMax {
			pt.TTFTMax = t
		}
	}
	if len(ttfts) > 0 {
		pt.TTFTMean = sum / time.Duration(len(ttfts))
	}
	return pt
}

// RestartTable renders the sweep.
func RestartTable(points []RestartPoint) metrics.Table {
	t := metrics.Table{
		Title: "R1: warm restart from the durable disk KV tier vs full recompute",
		Headers: []string{"mode", "families", "done", "nospace", "recovered",
			"ttft-mean", "ttft-max", "speedup", "req/s", "loads", "load-tok", "load-cost"},
	}
	for _, p := range points {
		t.AddRow(p.Mode, p.Families,
			fmt.Sprintf("%d/%d", p.Completed, p.Families), p.NoSpaceErrors,
			fmt.Sprintf("%d (%d tok)", p.RecoveredFiles, p.RecoveredTokens),
			p.TTFTMean.Round(time.Microsecond), p.TTFTMax.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", p.Speedup), fmt.Sprintf("%.2f", p.Throughput),
			p.DiskLoads, p.DiskLoadedTokens, p.DiskLoadCost.Round(time.Microsecond))
	}
	return t
}
