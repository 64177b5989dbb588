package experiments

import "repro/internal/metrics"

// Options carries symphony-bench's flag values to the sweeps: Quick
// selects every sweep's reduced config, and a nonzero Seed replaces the
// workload seed of every seeded sweep.
type Options struct {
	Quick bool
	Seed  int64
}

// pick returns the sweep's reduced config under -quick and its default
// otherwise.
func pick[C any](o Options, def, quick func() C) C {
	if o.Quick {
		return quick()
	}
	return def()
}

// seed overrides a config's Seed when -seed was given.
func (o Options) seed(s *int64) {
	if o.Seed != 0 {
		*s = o.Seed
	}
}

// seeded is the config function of a sweep with a Quick variant and a
// Seed field: pick, then -seed written through seedOf.
func seeded[C any](def, quick func() C, seedOf func(*C) *int64) func(Options) C {
	return func(o Options) C {
		cfg := pick(o, def, quick)
		o.seed(seedOf(&cfg))
		return cfg
	}
}

// Sweep is one registered experiment: symphony-bench, the root
// benchmarks, the oracle test and the docs check all iterate Sweeps, so
// a sweep exists everywhere or nowhere.
type Sweep struct {
	// Name is the -exp value.
	Name string
	// Seeded sweeps shift their workload streams with Options.Seed.
	Seeded bool
	// Run executes the sweep and returns the config it ran with, its
	// points (what BENCH_<Name>.json records, held to the checked-in
	// bench/baselines by the oracle test) and its rendered tables.
	Run func(Options) (cfg, points any, tables []metrics.Table)
}

// runner adapts a sweep's typed config/run/table functions to Sweep.Run.
func runner[C, P any](config func(Options) C, run func(C) []P, table func([]P) metrics.Table) func(Options) (any, any, []metrics.Table) {
	return func(o Options) (any, any, []metrics.Table) {
		cfg := config(o)
		pts := run(cfg)
		return cfg, pts, []metrics.Table{table(pts)}
	}
}

// Sweeps lists every experiment in presentation order.
var Sweeps = []Sweep{
	{Name: "fig3", Seeded: true, Run: func(o Options) (any, any, []metrics.Table) {
		cfg := pick(o, DefaultFig3, QuickFig3)
		o.seed(&cfg.Seed)
		pts := RunFig3(cfg)
		lat, thr := Fig3Tables(pts)
		return cfg, pts, []metrics.Table{lat, thr}
	}},
	{Name: "toolcalls", Run: runner(func(o Options) ToolCallsConfig {
		cfg := DefaultToolCalls()
		if o.Quick {
			cfg.Calls = []int{1, 4}
		}
		return cfg
	}, RunToolCalls, ToolCallsTable)},
	{Name: "constrained", Run: runner(func(o Options) ConstrainedConfig {
		cfg := DefaultConstrained()
		if o.Quick {
			cfg.Trials, cfg.Retries = 4, 8
		}
		return cfg
	}, RunConstrained, ConstrainedTable)},
	{Name: "speculative", Run: runner(func(o Options) SpeculativeConfig {
		cfg := DefaultSpeculative()
		if o.Quick {
			cfg.Ks = []int{0, 4}
		}
		return cfg
	}, RunSpeculative, SpeculativeTable)},
	{Name: "multiround", Run: runner(func(o Options) MultiRoundConfig {
		cfg := DefaultMultiRound()
		if o.Quick {
			cfg.Rounds = 4
		}
		return cfg
	}, RunMultiRound, MultiRoundTable)},
	{Name: "tot", Run: runner(func(o Options) TreeConfig {
		cfg := DefaultTree()
		if o.Quick {
			cfg.Branch, cfg.Depth = 2, 3
		}
		return cfg
	}, RunTree, TreeTable)},
	{Name: "editor", Seeded: true, Run: runner(func(o Options) EditorConfig {
		cfg := DefaultEditor()
		if o.Quick {
			cfg.Keystrokes = 40
		}
		o.seed(&cfg.Seed)
		return cfg
	}, RunEditor, EditorTable)},
	{Name: "overhead", Run: runner(func(o Options) OverheadConfig {
		cfg := DefaultOverhead()
		if o.Quick {
			cfg.Requests = 20
		}
		return cfg
	}, RunOverhead, OverheadTable)},
	{Name: "scaling", Seeded: true, Run: runner(seeded(DefaultScaling, QuickScaling,
		func(c *ScalingConfig) *int64 { return &c.Seed }), RunScaling, ScalingTable)},
	{Name: "pressure", Seeded: true, Run: runner(seeded(DefaultPressure, QuickPressure,
		func(c *PressureConfig) *int64 { return &c.Seed }), RunPressure, PressureTable)},
	{Name: "migrate", Seeded: true, Run: runner(seeded(DefaultMigrate, QuickMigrate,
		func(c *MigrateConfig) *int64 { return &c.Seed }), RunMigrate, MigrateTable)},
	{Name: "slo", Seeded: true, Run: runner(seeded(DefaultSLO, QuickSLO,
		func(c *SLOConfig) *int64 { return &c.Seed }), RunSLO, SLOTable)},
	{Name: "specdec", Seeded: true, Run: runner(seeded(DefaultSpecdec, QuickSpecdec,
		func(c *SpecdecConfig) *int64 { return &c.Seed }), RunSpecdec, SpecdecTable)},
	{Name: "restart", Seeded: true, Run: runner(seeded(DefaultRestart, QuickRestart,
		func(c *RestartConfig) *int64 { return &c.Seed }), RunRestart, RestartTable)},
	{Name: "chaos", Seeded: true, Run: runner(seeded(DefaultChaos, QuickChaos,
		func(c *ChaosConfig) *int64 { return &c.Seed }), RunChaos, ChaosTable)},
	{Name: "prefixcache", Seeded: true, Run: runner(seeded(DefaultPrefixCache, QuickPrefixCache,
		func(c *PrefixCacheConfig) *int64 { return &c.Seed }), RunPrefixCache, PrefixCacheTable)},
}

// SweepNames returns the names of the registered sweeps keep accepts
// (all of them when keep is nil), in presentation order.
func SweepNames(keep func(Sweep) bool) []string {
	var names []string
	for _, s := range Sweeps {
		if keep == nil || keep(s) {
			names = append(names, s.Name)
		}
	}
	return names
}
