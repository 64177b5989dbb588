package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// MigrateConfig parameterizes the cross-replica KV migration sweep: a
// skewed shared-prefix workload where every fork family's root hash
// homes to replica 0 under cache-affinity's static hashing, so one
// replica becomes a hotspot while the rest idle. The sweep runs the same
// workload under each dispatcher; cache-affinity-migrate lets the kernel
// migration engine move stranded prefixes to cold replicas over the
// interconnect, recovering replica balance.
//
// One extra family is held advisory-locked by its owner for the whole
// run: the engine must refuse to migrate it (its index home must never
// change), which the sweep records as the LockedFamilyMoved invariant.
type MigrateConfig struct {
	// Replicas is the GPU replica count (the hotspot is replica 0).
	Replicas int
	// Dispatchers lists the dispatch policies to compare.
	Dispatchers []string
	// Families is the number of distinct shared-prefix fork families
	// (excluding the locked holdout family).
	Families int
	// ClientsPerFamily closed-loop clients fork each family's prefix.
	ClientsPerFamily int
	// RequestsPerClient is how many fork-prefill-decode requests each
	// client runs back to back.
	RequestsPerClient int
	// PrefixTokens is the shared prefix length of each family.
	PrefixTokens int
	// SuffixTokens is the unique continuation each request prefills onto
	// its fork — the compute that makes a single hot replica the
	// bottleneck (prefill cost is linear in tokens).
	SuffixTokens int
	// DecodeTokens is the per-request decode length.
	DecodeTokens int
	// Seed offsets the deterministic workload streams (see seedBase); 0
	// and 1 both select the recorded baseline.
	Seed int64
}

// DefaultMigrate returns the sweep used by symphony-bench -exp migrate.
func DefaultMigrate() MigrateConfig {
	return MigrateConfig{
		Replicas:          4,
		Dispatchers:       []string{"cache-affinity", "cache-affinity-migrate"},
		Families:          8,
		ClientsPerFamily:  2,
		RequestsPerClient: 4,
		PrefixTokens:      512,
		SuffixTokens:      192,
		DecodeTokens:      8,
		Seed:              1,
	}
}

// QuickMigrate returns a reduced sweep for -quick and the test suite.
func QuickMigrate() MigrateConfig {
	c := DefaultMigrate()
	c.RequestsPerClient = 3
	c.PrefixTokens = 384
	c.DecodeTokens = 4
	return c
}

// MigratePoint is one dispatcher's measurement on the skewed workload.
type MigratePoint struct {
	Dispatcher string
	Replicas   int
	Families   int
	Clients    int
	Completed  int
	// Makespan covers the client phase (prefix seeding excluded);
	// Throughput is virtual requests per second over it.
	Makespan   time.Duration
	Throughput float64
	// Speedup is vs the cache-affinity row (1 when absent).
	Speedup float64
	// Utilization spread across replicas: a recovered workload has
	// UtilMin near UtilMax instead of one hot replica.
	UtilMean float64
	UtilMin  float64
	UtilMax  float64
	// Engine ledger (zero under plain cache-affinity).
	Migrations      int64
	MigratedTokens  int64
	MigrateTime     time.Duration
	ColdStarts      int64
	RefusedLocked   int64
	RefusedInFlight int64
	RefusedPressure int64
	// LockedFamilyMoved reports whether the advisory-locked holdout
	// family's home ever changed — the acceptance bar is false: locked
	// files are never migrated.
	LockedFamilyMoved bool
}

// RunMigrate sweeps the dispatchers over the skewed workload.
func RunMigrate(cfg MigrateConfig) []MigratePoint {
	var out []MigratePoint
	for _, d := range cfg.Dispatchers {
		out = append(out, runMigrateCell(cfg, d))
	}
	normalize(out, func(_, q *MigratePoint) bool { return q.Dispatcher == "cache-affinity" },
		func(p, base *MigratePoint) { p.Speedup = ratio(p.Throughput, base.Throughput) })
	return out
}

// skewedFirstToken picks a token whose single-entry context hash homes
// to replica `target` under hash % replicas, searching deterministically
// from seed. The root KV hash of a file is the hash after its first
// token, so seeding a family with this token pins its static
// cache-affinity home.
func skewedFirstToken(replicas, target, seed int) token.ID {
	for t := seed; ; t++ {
		if uint64(model.CtxHash(0).Extend(token.ID(t), 0))%uint64(replicas) == uint64(target) {
			return token.ID(t)
		}
	}
}

// familyRoot is the root KV hash a family seeded with first token t has.
func familyRoot(t token.ID) model.CtxHash {
	return model.CtxHash(0).Extend(t, 0)
}

// familyTokens is one shared-prefix family's token stream: the
// skew-engineered first token, then a seeded run that differentiates the
// families.
func familyTokens(first token.ID, prefix, seed int) []token.ID {
	toks := synthTokens(prefix, seed)
	toks[0] = first
	return toks
}

// seedFamily creates and prefills one shared-prefix family file.
func seedFamily(ctx *core.Ctx, path string, first token.ID, prefix, seed int) error {
	f, err := ctx.KvCreate(path, kvfs.ModeShared)
	if err != nil {
		return err
	}
	_, err = ctx.Pred(f, familyTokens(first, prefix, seed), positions(prefix, 0))
	return err
}

// seedFamilies prefills every family's shared prefix. All roots are
// engineered to home to replica 0 under static hashing.
func seedFamilies(ctx *core.Ctx, replicas, families, prefix, base int) error {
	for i := 0; i < families; i++ {
		first := skewedFirstToken(replicas, 0, 1_000_000+i*10_000)
		if err := seedFamily(ctx, fmt.Sprintf("fam-%d", i), first, prefix, base+1_000_000+i*10_000); err != nil {
			return err
		}
	}
	return nil
}

// familyUser names the tenants of a client population laid out family
// by family: client i is client i%perFamily of family i/perFamily.
func familyUser(perFamily int) func(i int) string {
	return func(i int) string { return fmt.Sprintf("fam%d-c%d", i/perFamily, i%perFamily) }
}

// forkRequest is one request of the skewed workload: fork the family
// prefix, prefill a unique suffix, decode, and drop the fork.
func forkRequest(ctx *core.Ctx, parent *kvfs.File, suffix, decode, seed int) error {
	fork, err := ctx.KvFork(parent)
	if err != nil {
		return err
	}
	defer fork.Remove()
	if err := synthPred(ctx, fork, suffix, seed); err != nil {
		return err
	}
	return synthDecode(ctx, fork, decode, seed+500, nil)
}

// runMigrateCell measures one dispatcher on the skewed workload.
func runMigrateCell(cfg MigrateConfig, dispatch string) MigratePoint {
	dispatcher, err := sched.NewDispatcher(dispatch)
	if err != nil {
		panic(err)
	}
	clk := simclock.New()
	// Capacity is not the variable under study: the default pool holds
	// the closed-loop population and migration's transient double
	// residency without ErrNoSpace.
	c := newCell(clk, func(kc *core.Config) {
		kc.Replicas = cfg.Replicas
		kc.Dispatcher = dispatcher
	})

	base := seedBase(cfg.Seed)
	lockedFirst := skewedFirstToken(cfg.Replicas, 0, 7_000_000)
	var clientsStart time.Duration
	c.run(func() {
		// Phase 1: seed every family's shared prefix, and the holdout's.
		err := c.k.Submit("admin", func(ctx *core.Ctx) error {
			if err := seedFamilies(ctx, cfg.Replicas, cfg.Families, cfg.PrefixTokens, base); err != nil {
				return err
			}
			return seedFamily(ctx, "fam-locked", lockedFirst, cfg.PrefixTokens, base+7_000_000)
		}).Wait()
		if err != nil {
			c.procs.note(clk.Now(), err)
			return
		}
		clientsStart = clk.Now()

		// The locked holdout: its owner locks the family file and keeps
		// decoding on it directly for the whole run. The engine sees its
		// (overloaded) home but must never move it.
		c.submit("admin", core.SubmitOptions{}, func(ctx *core.Ctx) error {
			f, err := ctx.KvOpen("fam-locked", true)
			if err != nil {
				return err
			}
			if err := ctx.KvLock(f); err != nil {
				return err
			}
			defer ctx.KvUnlock(f)
			rounds := cfg.RequestsPerClient * cfg.DecodeTokens
			return closedLoop(ctx, rounds, 5*time.Millisecond, func(r int) error {
				return synthPred(ctx, f, 1, 7_100_000+r)
			})
		})

		// Phase 2: closed-loop clients fork their family's prefix,
		// prefill a unique continuation, and decode.
		c.clients(population{
			User:    familyUser(cfg.ClientsPerFamily),
			Clients: cfg.Families * cfg.ClientsPerFamily,
			// Stagger starts a millisecond apart so request waves do not
			// phase-lock.
			Spread: time.Duration(cfg.Families*cfg.ClientsPerFamily) * time.Millisecond,
			Program: func(ctx *core.Ctx, i int) error {
				fam, cl := i/cfg.ClientsPerFamily, i%cfg.ClientsPerFamily
				parent, err := ctx.KvOpen(fmt.Sprintf("fam-%d", fam), false)
				if err != nil {
					return err
				}
				return closedLoop(ctx, cfg.RequestsPerClient, 0, func(r int) error {
					seed := base + 2_000_000 + fam*100_000 + cl*10_000 + r*1_000
					if err := forkRequest(ctx, parent, cfg.SuffixTokens, cfg.DecodeTokens, seed); err != nil {
						return err
					}
					c.mark()
					return nil
				})
			},
		})
	})
	c.mustSucceed("migrate cell " + dispatch)

	st := c.k.Stats()
	pt := MigratePoint{
		Dispatcher:      dispatch,
		Replicas:        cfg.Replicas,
		Families:        cfg.Families,
		Clients:         cfg.Families * cfg.ClientsPerFamily,
		Completed:       c.reqs.completed,
		Makespan:        c.reqs.last - clientsStart,
		UtilMean:        st.Sched.Utilization,
		Migrations:      st.Migration.Migrations,
		MigratedTokens:  st.Migration.MigratedTokens,
		MigrateTime:     st.Migration.MigrateTime,
		ColdStarts:      st.Migration.ColdStarts,
		RefusedLocked:   st.Migration.RefusedLocked,
		RefusedInFlight: st.Migration.RefusedInFlight,
		RefusedPressure: st.Migration.RefusedPressure,
	}
	if home, ok := c.k.PrefixHome(familyRoot(lockedFirst)); ok && home != 0 {
		pt.LockedFamilyMoved = true
	}
	pt.Throughput = perSecond(pt.Completed, pt.Makespan)
	pt.UtilMin, pt.UtilMax = utilSpread(st.Sched.Replicas)
	return pt
}

// MigrateTable renders the sweep.
func MigrateTable(points []MigratePoint) metrics.Table {
	t := metrics.Table{
		Title: "M1: cross-replica KV migration on a skewed shared-prefix workload",
		Headers: []string{"dispatch", "gpus", "req/s", "speedup", "util-min", "util-max",
			"migrations", "mig-tok", "mig-time", "cold-starts", "ref-lock", "ref-inflight", "locked-moved"},
	}
	for _, p := range points {
		t.AddRow(p.Dispatcher, p.Replicas,
			fmt.Sprintf("%.2f", p.Throughput), fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.2f", p.UtilMin), fmt.Sprintf("%.2f", p.UtilMax),
			p.Migrations, p.MigratedTokens, p.MigrateTime.Round(time.Microsecond),
			p.ColdStarts, p.RefusedLocked, p.RefusedInFlight, p.LockedFamilyMoved)
	}
	return t
}
