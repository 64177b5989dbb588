package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simclock"
)

// PressureConfig parameterizes the memory-pressure sweep: a closed-loop
// population of conversation-building clients whose aggregate KV demand
// oversubscribes the GPU tier by a configured factor, served by a kernel
// whose KV memory daemon (internal/kvd) must keep every program alive by
// offloading cold files to the host tier and restoring them on access.
//
// Each round a client grows its long-lived conversation file and also
// materializes one-shot scratch contexts it never touches again; the
// scratch lingers until the program exits, like abandoned contexts
// awaiting cleanup. Conversations alone fit comfortably on the GPU —
// the accumulated scratch is what drives demand to Oversub × capacity —
// so the daemon has real discretion, and the workload is a recency trap:
// its least-recently-used order ranks a thinking client's conversation as
// idler than that client's own fresher scratch and pays the large
// restore when the conversation returns. The program knows better, and
// says so the one way the kernel offers (paper §2.1): in a retaining cell
// each client holds its conversation's advisory lock (Ctx.KvLock) from
// creation to removal, which takes the file out of the daemon's
// candidates.
type PressureConfig struct {
	// Retain lists the cells to sweep at each factor: false leaves the
	// conversation to the daemon, true has the program lock it.
	Retain []bool
	// Oversub lists the demand factors to sweep: total KV tokens created
	// (conversations + scratch) = Oversub × GPUTokens.
	Oversub []float64
	// GPUTokens sizes the GPU KV tier in tokens.
	GPUTokens int
	// Clients is the closed-loop population size.
	Clients int
	// Rounds is how many grow-think cycles each client runs.
	Rounds int
	// ConvTokens is each client's final conversation length, grown in
	// equal per-round chunks. Clients × ConvTokens should stay below
	// GPUTokens so keeping conversations resident is possible.
	ConvTokens int
	// ScratchTokens sizes one scratch file; enough files are created per
	// round to reach the Oversub demand factor.
	ScratchTokens int
	// Think is the idle time between a client's rounds — the window in
	// which its conversation is cold and evictable.
	Think time.Duration
	// Seed offsets the deterministic workload streams (see seedBase); 0
	// and 1 both select the recorded baseline.
	Seed int64
}

// DefaultPressure returns the sweep used by symphony-bench -exp pressure.
func DefaultPressure() PressureConfig {
	return PressureConfig{
		Retain:        []bool{false, true},
		Oversub:       []float64{2, 3, 4},
		GPUTokens:     4096,
		Clients:       16,
		Rounds:        6,
		ConvTokens:    144,
		ScratchTokens: 48,
		Think:         150 * time.Millisecond,
		Seed:          1,
	}
}

// QuickPressure returns a reduced sweep for -quick and the test suite.
func QuickPressure() PressureConfig {
	c := DefaultPressure()
	c.Oversub = []float64{3}
	c.GPUTokens = 2048
	c.Clients = 8
	c.Rounds = 4
	c.Think = 120 * time.Millisecond
	return c
}

// PressurePoint is one (retention, oversubscription) cell's measurement.
type PressurePoint struct {
	// Retain reports whether the clients locked their conversations.
	Retain bool
	// Oversub is the configured working-set factor.
	Oversub float64
	Clients int
	// Completed counts clients that finished all rounds; NoSpaceErrors
	// counts program-visible ErrNoSpace failures (the acceptance bar is
	// zero) and OtherErrors everything else.
	Completed     int
	NoSpaceErrors int
	OtherErrors   int
	Makespan      time.Duration
	// Throughput is virtual pred tokens per second over the makespan.
	Throughput float64
	PredTokens int64
	// Offloads/Restores mirror the daemon ledger for the cell;
	// RestoredCost is the total PCIe time paid to bring back files the
	// daemon evicted — the price of its guesses, which retention is
	// meant to save. SwapRestoredCost is the same for self-preemption
	// swaps (standoff breaking, not an eviction).
	Offloads         int64
	OffloadedTokens  int64
	Restores         int64
	RestoredTokens   int64
	RestoredCost     time.Duration
	SwapRestores     int64
	SwapRestoredCost time.Duration
	// Preemptions counts self-preemption swaps.
	Preemptions int64
	// GPUPeakPages sanity-checks that the GPU tier never overcommitted.
	GPUPeakPages int
	GPUPageCap   int
}

// RunPressure sweeps retention × oversubscription factors.
func RunPressure(cfg PressureConfig) []PressurePoint {
	var out []PressurePoint
	for _, retain := range cfg.Retain {
		for _, over := range cfg.Oversub {
			out = append(out, runPressureCell(cfg, retain, over))
		}
	}
	return out
}

// runPressureCell measures one retention choice at one oversubscription
// factor.
func runPressureCell(cfg PressureConfig, retain bool, over float64) PressurePoint {
	bpt := model.A100Llama13B().KVBytesPerToken
	c := newCell(simclock.New(), func(kc *core.Config) {
		kc.FS = kvfs.Config{
			PageTokens:    16,
			GPUBytes:      int64(cfg.GPUTokens) * bpt,
			HostBytes:     int64(cfg.GPUTokens) * bpt * 16,
			BytesPerToken: bpt,
		}
	})

	chunk := cfg.ConvTokens / cfg.Rounds
	// Scratch fills the demand gap between the conversations and the
	// configured oversubscription factor, split into files per round.
	scratchBudget := int(over*float64(cfg.GPUTokens)) - cfg.Clients*cfg.ConvTokens
	scratchFiles := 0
	if scratchBudget > 0 {
		perRound := scratchBudget / (cfg.Clients * cfg.Rounds)
		scratchFiles = (perRound + cfg.ScratchTokens - 1) / cfg.ScratchTokens
	}
	base := seedBase(cfg.Seed)
	c.run(func() {
		c.clients(population{
			User:    numbered("tenant-%d"),
			Clients: cfg.Clients,
			// Stagger arrivals so rounds do not phase-lock.
			Spread: cfg.Think,
			Program: func(ctx *core.Ctx, i int) error {
				conv, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer conv.Remove()
				if retain {
					if err := ctx.KvLock(conv); err != nil {
						return err
					}
				}
				var scratches []*kvfs.File
				defer func() {
					for _, s := range scratches {
						s.Remove()
					}
				}()
				return closedLoop(ctx, cfg.Rounds, cfg.Think, func(r int) error {
					// Grow the conversation (restores transparently if
					// the daemon evicted it during the think window).
					if err := synthPred(ctx, conv, chunk, base+i*100000+r*1000); err != nil {
						return err
					}
					// Fresh scratch the client will never touch again —
					// recently used but worthless to keep. It lingers
					// until the program exits, like abandoned contexts
					// awaiting cleanup.
					for s := 0; s < scratchFiles; s++ {
						scratch, err := ctx.KvAnon()
						if err != nil {
							return err
						}
						scratches = append(scratches, scratch)
						if err := synthPred(ctx, scratch, cfg.ScratchTokens, base+900000+i*10000+r*100+s); err != nil {
							return err
						}
					}
					return nil
				})
			},
		})
	})

	st := c.k.Stats()
	return PressurePoint{
		Retain:           retain,
		Oversub:          over,
		Clients:          cfg.Clients,
		Completed:        c.procs.completed,
		NoSpaceErrors:    c.procs.noSpace,
		OtherErrors:      c.procs.otherErrs,
		Makespan:         c.procs.last,
		Throughput:       perSecond(st.PredTokens, c.procs.last),
		PredTokens:       st.PredTokens,
		Offloads:         st.KVD.Offloads,
		OffloadedTokens:  st.KVD.OffloadedTokens,
		Restores:         st.KVD.Restores,
		RestoredTokens:   st.KVD.RestoredTokens,
		RestoredCost:     st.KVD.RestoredCost,
		SwapRestores:     st.KVD.SwapRestores,
		SwapRestoredCost: st.KVD.SwapRestoredCost,
		Preemptions:      st.KVD.Preemptions,
		GPUPeakPages:     st.FS.GPUPeakPages,
		GPUPageCap:       st.FS.GPUPageCap,
	}
}

// PressureTable renders the sweep.
func PressureTable(points []PressurePoint) metrics.Table {
	t := metrics.Table{
		Title: "P1 (§4.2–4.3): kernel KV daemon under GPU memory oversubscription",
		Headers: []string{"retain", "oversub", "done", "nospace", "tok/s",
			"offloads", "off-tok", "restores", "rst-tok", "rst-cost", "swap-cost", "preempt"},
	}
	for _, p := range points {
		t.AddRow(p.Retain, fmt.Sprintf("%.1fx", p.Oversub),
			fmt.Sprintf("%d/%d", p.Completed, p.Clients), p.NoSpaceErrors,
			fmt.Sprintf("%.0f", p.Throughput),
			p.Offloads, p.OffloadedTokens, p.Restores, p.RestoredTokens,
			p.RestoredCost.Round(time.Microsecond),
			p.SwapRestoredCost.Round(time.Microsecond), p.Preemptions)
	}
	return t
}
