package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// ChaosConfig parameterizes the fault-injection sweep: the same seeded
// skewed shared-prefix workload (the migrate experiment's shape, plus a
// periodic checkpointer into the durable disk tier) runs once fault-free
// and once per fault plan, with internal/chaos injecting failures at the
// three I/O seams — interconnect transfers, the disk VFS, and replica
// executors. The cells measure what recovery costs, and the sweep's
// acceptance bar is what recovery must never cost: no job is lost or
// duplicated, no token is double-billed, and the scheduler's execution
// ledger stays exact (ExecutedTokens == Tokens + LostTokens).
type ChaosConfig struct {
	// Replicas is the GPU replica count; the skewed families all home to
	// replica 0, so migrations (and their injected failures) happen.
	Replicas int
	// Cells lists the fault plans to run (see armChaos): "none",
	// "interconnect", "disk", "replica-crash", plus the fault-free
	// "prefix-cache" variant that reruns the workload on a kernel with the
	// radix prefix cache enabled and clients submitting full flat prompts,
	// auditing that cache-served tokens are billed as saved, not executed.
	Cells []string
	// Families, ClientsPerFamily, RequestsPerClient, PrefixTokens,
	// SuffixTokens, DecodeTokens shape the closed-loop fork workload
	// exactly as in MigrateConfig.
	Families          int
	ClientsPerFamily  int
	RequestsPerClient int
	PrefixTokens      int
	SuffixTokens      int
	DecodeTokens      int
	// Checkpoints is how many periodic CheckpointKV rounds the background
	// checkpointer runs during the client phase, CheckpointEvery apart —
	// the disk cell's fault plan targets these commits.
	Checkpoints     int
	CheckpointEvery time.Duration
	// DiskGB sizes the durable disk tier in GiB.
	DiskGB float64
	// Seed offsets the deterministic workload and injector streams (see
	// seedBase); 0 and 1 both select the recorded baseline.
	Seed int64
}

// DefaultChaosCells lists the fault plans in presentation order.
var DefaultChaosCells = []string{"none", "interconnect", "disk", "replica-crash"}

// DefaultChaos returns the sweep used by symphony-bench -exp chaos.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Replicas:          4,
		Cells:             DefaultChaosCells,
		Families:          8,
		ClientsPerFamily:  2,
		RequestsPerClient: 3,
		PrefixTokens:      384,
		SuffixTokens:      160,
		DecodeTokens:      6,
		Checkpoints:       4,
		CheckpointEvery:   10 * time.Millisecond,
		DiskGB:            16,
		Seed:              1,
	}
}

// QuickChaos returns a reduced sweep for -quick and the test suite.
func QuickChaos() ChaosConfig {
	c := DefaultChaos()
	c.Families = 6
	c.RequestsPerClient = 2
	c.PrefixTokens = 256
	c.SuffixTokens = 96
	c.DecodeTokens = 4
	c.Checkpoints = 3
	c.CheckpointEvery = 7 * time.Millisecond
	return c
}

// ChaosPoint is one fault plan's measurement on the seeded workload.
type ChaosPoint struct {
	// Mode names the fault plan ("none" is the fault-free baseline).
	Mode     string
	Replicas int
	Families int
	// Jobs is the job population (Families × clients × requests);
	// Completed, Lost, and Duplicated count completions per job id — the
	// acceptance bar is Completed == Jobs and Lost == Duplicated == 0
	// under every fault plan.
	Jobs       int
	Completed  int
	Lost       int
	Duplicated int
	// ChargedTokens is what the billing ledger collected across users;
	// ExpectedTokens is the workload's exact bill. BillingExact requires
	// them equal: crash-requeued work re-executes, it never re-charges.
	ChargedTokens  int64
	ExpectedTokens int64
	BillingExact   bool
	// TokensExact asserts the scheduler's execution ledger:
	// ExecutedTokens == Tokens + LostTokens after all calls complete.
	TokensExact bool
	// Faults is how many injector hits fired a rule in this cell.
	Faults int
	// Scheduler crash ledger.
	Crashes    int64
	Requeued   int64
	LostTokens int64
	// Migration engine ledger (TransferAborts counts interconnect
	// failures rolled back with their reservations released).
	Migrations     int64
	TransferAborts int64
	// Checkpointer ledger: successful rounds vs failed commits. The disk
	// fault plan turns rounds into CommitErrors; everything else keeps
	// them zero.
	Checkpoints  int
	CommitErrors int
	// SpillRollbacks counts failed-commit spill reversals in the KV
	// daemon's ledger.
	SpillRollbacks int64
	// HitTokens is the prefix-cache cell's cache-served prompt volume
	// (omitted everywhere else, keeping recorded artifacts stable). The
	// billing invariant covers it: hit tokens are charged to the user but
	// never executed, and both ledgers must still balance exactly.
	HitTokens int64 `json:",omitempty"`
	// Recovery: after the run, the machine power-fails and a fresh
	// kernel recovers the newest durable snapshot. RecoverOK is false
	// when recovery had to fall back past a corrupt generation.
	RecoveredFiles  int
	RecoveredTokens int
	RecoverOK       bool
	// Per-request latency distribution; P99Inflation is vs the "none"
	// cell (1 when absent).
	P50          time.Duration
	P99          time.Duration
	P99Inflation float64
	// Makespan covers the client phase; Throughput is virtual requests
	// per second over it.
	Makespan   time.Duration
	Throughput float64
}

// RunChaos sweeps the fault plans over the identical seeded workload.
func RunChaos(cfg ChaosConfig) []ChaosPoint {
	var out []ChaosPoint
	for _, cell := range cfg.Cells {
		out = append(out, runChaosCell(cfg, cell))
	}
	normalize(out, func(_, q *ChaosPoint) bool { return q.Mode == "none" },
		func(p, base *ChaosPoint) { p.P99Inflation = ratio(p.P99, base.P99) })
	return out
}

// armChaos installs one cell's fault plan. now is the virtual time the
// client phase starts (the clean seed + checkpoint prologue is never
// faulted), so window triggers are phase-relative and deterministic.
func armChaos(inj *chaos.Injector, mode string, now time.Duration) {
	ms := func(n int) time.Duration { return now + time.Duration(n)*time.Millisecond }
	switch mode {
	case "none":
		// Fault-free baseline.
	case "interconnect":
		inj.Arm(
			// The first migration transfer fails outright, later ones fail
			// or stall probabilistically, and a partition window rejects
			// every transfer for 8ms. Failed transfers must roll back:
			// reservations released, the prefix still served at its old
			// home, and the engine free to retry after the window.
			chaos.Rule{Point: "ic.transfer", Nth: 1, Err: true},
			chaos.Rule{Point: "ic.transfer", Prob: 0.25, Times: -1, Err: true},
			chaos.Rule{Point: "ic.transfer", Prob: 0.25, Times: -1, Stall: 2 * time.Millisecond},
			chaos.Rule{Point: "ic.transfer", At: ms(10), Until: ms(18), Times: -1, Err: true},
		)
	case "disk":
		inj.Arm(
			// One fault per checkpoint round (see CheckpointEvery): a sync
			// error, then a lying sync plus a failed directory flush, then
			// a torn write with a power failure mid-publish. Every round
			// fails, so recovery must land on the clean prologue snapshot.
			chaos.Rule{Point: "file.sync", At: ms(5), Err: true},
			chaos.Rule{Point: "file.sync", At: ms(12), Lie: true},
			chaos.Rule{Point: "fs.syncdir", At: ms(12), Err: true},
			chaos.Rule{Point: "file.write", At: ms(19), Torn: true},
			chaos.Rule{Point: "file.write", At: ms(19), Crash: true},
		)
	case "replica-crash":
		inj.Arm(
			// Two executors die at iteration boundaries mid-phase: the hot
			// home replica first, a bystander later. In-flight calls are
			// requeued to surviving replicas with their progress discarded
			// but their billing untouched.
			chaos.Rule{Point: "replica.0.crash", At: ms(4), Crash: true},
			chaos.Rule{Point: "replica.2.crash", At: ms(12), Crash: true},
		)
	case "prefix-cache":
		// Fault-free, but the kernel runs with the radix prefix cache on
		// and clients submit full flat prompts (see runChaosCell): the cell
		// audits the billing and execution ledgers when most prefill tokens
		// are served from cache instead of computed.
	default:
		panic(fmt.Sprintf("experiments: unknown chaos cell %q", mode))
	}
}

// runChaosCell measures one fault plan end to end: seed + clean
// checkpoint, arm, faulted client phase with a background checkpointer,
// then power-fail and recover on a fresh kernel.
func runChaosCell(cfg ChaosConfig, mode string) ChaosPoint {
	prefix := mode == "prefix-cache"
	dispatcher, err := sched.NewDispatcher("cache-affinity-migrate")
	if err != nil {
		panic(err)
	}
	diskBytes := int64(cfg.DiskGB * float64(1<<30))
	base := seedBase(cfg.Seed)
	clk := simclock.New()
	inj := chaos.New(clk, int64(base)+97)
	vfs := kvstore.NewSimFS(nil, model.Llama13B().Cost)
	ic := netsim.DefaultInterconnect(clk)
	hook := chaos.TransferFaultHook(inj, "")
	ic.SetFault(func(pages int, bytes int64) netsim.TransferFault {
		o := hook(pages, bytes)
		return netsim.TransferFault{Stall: o.Stall, Err: o.Err}
	})
	durable := durableKernel(chaos.NewFaultFS(vfs, inj), diskBytes)
	c := newCell(clk, func(kc *core.Config) {
		durable(kc)
		kc.Replicas = cfg.Replicas
		kc.Dispatcher = dispatcher
		kc.Interconnect = ic
		kc.CrashCheck = inj.CrashCheck()
		kc.Prefix = core.PrefixConfig{Enabled: prefix}
	})

	clients := cfg.Families * cfg.ClientsPerFamily
	jobs := clients * cfg.RequestsPerClient
	user := familyUser(cfg.ClientsPerFamily)
	var (
		mu           sync.Mutex
		counts       = make([]int, jobs)
		lats         []time.Duration
		clientsStart time.Duration
		checkpoints  tally
	)
	c.run(func() {
		// Prologue (never faulted): seed every family's shared prefix —
		// all homed to replica 0 under static hashing — and land one clean
		// snapshot generation for recovery to fall back on.
		err := c.k.Submit("admin", func(ctx *core.Ctx) error {
			return seedFamilies(ctx, cfg.Replicas, cfg.Families, cfg.PrefixTokens, base)
		}).Wait()
		if err == nil {
			if _, err = c.k.CheckpointKV(); err != nil {
				err = fmt.Errorf("clean checkpoint: %w", err)
			}
		}
		if err != nil {
			c.procs.note(clk.Now(), err)
			return
		}

		clientsStart = clk.Now()
		armChaos(inj, mode, clientsStart)

		// Background checkpointer: periodic best-effort snapshots of the
		// named prefixes while the clients run. The disk fault plan makes
		// these commits fail; that must never corrupt what is already
		// durable.
		c.spawn("checkpointer", func() {
			for i := 0; i < cfg.Checkpoints; i++ {
				clk.Sleep(cfg.CheckpointEvery)
				_, cerr := c.k.CheckpointKV()
				checkpoints.note(clk.Now(), cerr)
			}
		})

		// Closed-loop clients, identical across cells: fork the family
		// prefix, prefill a unique suffix, decode, drop the fork. Every
		// (fam, client, request) triple is one job; its completion count
		// feeds the lost/duplicated invariant.
		c.clients(population{
			User:    user,
			Clients: clients,
			Spread:  time.Duration(clients) * time.Millisecond,
			Program: func(ctx *core.Ctx, i int) error {
				fam, cl := i/cfg.ClientsPerFamily, i%cfg.ClientsPerFamily
				var parent *kvfs.File
				if !prefix {
					var err error
					parent, err = ctx.KvOpen(fmt.Sprintf("fam-%d", fam), false)
					if err != nil {
						return err
					}
				}
				return closedLoop(ctx, cfg.RequestsPerClient, 0, func(r int) error {
					reqStart := clk.Now()
					seed := base + 2_000_000 + fam*100_000 + cl*10_000 + r*1_000
					var err error
					if prefix {
						// Flat-prompt variant: the full family preamble plus the
						// unique suffix lands in a fresh anonymous file, so the
						// radix cache (seeded by the prologue) serves the
						// preamble while the user is billed for every token.
						first := skewedFirstToken(cfg.Replicas, 0, 1_000_000+fam*10_000)
						prompt := append(familyTokens(first, cfg.PrefixTokens, base+1_000_000+fam*10_000),
							synthTokens(cfg.SuffixTokens, seed)...)
						err = promptRequest(ctx, prompt, cfg.DecodeTokens, seed+500)
					} else {
						err = forkRequest(ctx, parent, cfg.SuffixTokens, cfg.DecodeTokens, seed)
					}
					if err != nil {
						return err
					}
					c.mark()
					mu.Lock()
					counts[i*cfg.RequestsPerClient+r]++
					lats = append(lats, clk.Now()-reqStart)
					mu.Unlock()
					return nil
				})
			},
		})
	})
	c.mustSucceed("chaos cell " + mode)

	st := c.k.Stats()
	pt := ChaosPoint{
		Mode:           mode,
		Replicas:       cfg.Replicas,
		Families:       cfg.Families,
		Jobs:           jobs,
		Completed:      c.reqs.completed,
		Faults:         inj.TotalFired(),
		Crashes:        st.Sched.Crashes,
		Requeued:       st.Sched.Requeued,
		LostTokens:     st.Sched.LostTokens,
		Migrations:     st.Migration.Migrations,
		TransferAborts: st.Migration.TransferAborts,
		Checkpoints:    checkpoints.completed,
		CommitErrors:   checkpoints.failed(),
		SpillRollbacks: st.KVD.SpillRollbacks,
		HitTokens:      st.PrefixCache.HitTokens,
		Makespan:       c.reqs.last - clientsStart,
	}
	for _, n := range counts {
		if n == 0 {
			pt.Lost++
		}
		if n > 1 {
			pt.Duplicated += n - 1
		}
	}
	pt.ExpectedTokens = int64(cfg.Families*cfg.PrefixTokens) + int64(jobs*(cfg.SuffixTokens+cfg.DecodeTokens))
	if prefix {
		// Flat prompts re-submit the preamble with every job; users are
		// charged for it even when the cache serves it without executing.
		pt.ExpectedTokens += int64(jobs * cfg.PrefixTokens)
	}
	pt.ChargedTokens = c.k.UserUsage("admin")
	for i := 0; i < clients; i++ {
		pt.ChargedTokens += c.k.UserUsage(user(i))
	}
	pt.BillingExact = pt.ChargedTokens == pt.ExpectedTokens
	pt.TokensExact = st.Sched.ExecutedTokens == st.Sched.Tokens+st.Sched.LostTokens
	pt.Throughput = perSecond(pt.Completed, pt.Makespan)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		pt.P50 = lats[n/2]
		pt.P99 = lats[min(n*99/100, n-1)]
	}

	// Epilogue: power-fail the machine and boot a fresh kernel over the
	// bare (fault-free) disk. Whatever the cell did to the checkpoint
	// stream, recovery must land a consistent snapshot generation.
	vfs.Crash()
	clk2 := simclock.New()
	k2 := newKernel(clk2, durableKernel(vfs, diskBytes))
	drive(clk2, func() {
		files, tokens, rerr := k2.RecoverKV()
		pt.RecoveredFiles, pt.RecoveredTokens = files, tokens
		pt.RecoverOK = rerr == nil
	})
	return pt
}

// ChaosTable renders the sweep.
func ChaosTable(points []ChaosPoint) metrics.Table {
	t := metrics.Table{
		Title: "C1: fault injection at the I/O seams — jobs, billing, and recovery stay exact",
		Headers: []string{"cell", "jobs", "lost", "dup", "billing", "ledger", "faults",
			"crashes", "requeued", "aborts", "cp-err", "recovered", "p99", "p99-infl", "req/s"},
	}
	okStr := func(b bool) string {
		if b {
			return "exact"
		}
		return "BROKEN"
	}
	for _, p := range points {
		t.AddRow(p.Mode, fmt.Sprintf("%d/%d", p.Completed, p.Jobs), p.Lost, p.Duplicated,
			okStr(p.BillingExact), okStr(p.TokensExact), p.Faults,
			p.Crashes, p.Requeued, p.TransferAborts, p.CommitErrors,
			fmt.Sprintf("%d (%d tok)", p.RecoveredFiles, p.RecoveredTokens),
			p.P99.Round(time.Microsecond), fmt.Sprintf("%.2fx", p.P99Inflation),
			fmt.Sprintf("%.2f", p.Throughput))
	}
	return t
}
