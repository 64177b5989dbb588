package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// update makes TestSweepsReproduce rewrite the baselines it would
// otherwise compare against. It is the one refresh path: a change that
// moves a sweep's bytes on purpose regenerates them with
//
//	go test ./internal/experiments -run TestSweepsReproduce -update
//
// and commits the moved files on their own, the moved fields in the
// message.
var update = flag.Bool("update", false, "rewrite bench/baselines/BENCH_<name>.json from the -quick run instead of comparing")

// reduced binds a sweep's Run function to the reduced config its
// determinism pin reruns.
func reduced[C, P any](cfg C, run func(C) []P) func() (cfg, points any) {
	return func() (any, any) { return cfg, run(cfg) }
}

// determinismPins lists, for every sweep, how many equal-seed runs must
// marshal to identical bytes. The sweeps with a history of scheduling
// nondeterminism (speculation windows, radix map iteration, fault plans)
// run twenty times, the rest twice; rerun is the reduced config the
// expensive ones repeat, nil to repeat the -quick run.
var determinismPins = map[string]struct {
	runs  int
	rerun func() (cfg, points any)
}{
	"fig3": {2, reduced(func() Fig3Config {
		cfg := QuickFig3()
		cfg.Rates = []float64{4}
		cfg.ParetoIndices = []float64{0.6}
		cfg.Duration = 5 * time.Second
		cfg.Seed = 42
		return cfg
	}(), RunFig3)},
	"toolcalls":   {2, nil},
	"constrained": {2, nil},
	"speculative": {2, nil},
	"multiround": {2, reduced(func() MultiRoundConfig {
		cfg := DefaultMultiRound()
		cfg.Rounds = 2
		cfg.PressurePrompts = 2
		return cfg
	}(), RunMultiRound)},
	"tot":      {2, nil},
	"editor":   {2, nil},
	"overhead": {2, nil},
	"scaling": {2, reduced(func() ScalingConfig {
		cfg := QuickScaling()
		cfg.Replicas = []int{1, 2}
		cfg.Clients = 24
		cfg.Seed = 42
		return cfg
	}(), RunScaling)},
	"pressure": {2, nil},
	"migrate":  {2, nil},
	"slo":      {2, nil},
	"specdec": {20, reduced(func() SpecdecConfig {
		cfg := QuickSpecdec()
		cfg.InteractiveClients = 4
		cfg.InteractiveRequests = 3
		cfg.BatchClients = 3
		cfg.BatchDecode = 128
		cfg.Seed = 42
		return cfg
	}(), RunSpecdec)},
	"restart": {2, nil},
	"chaos":   {20, nil},
	"prefixcache": {20, reduced(func() PrefixCacheConfig {
		cfg := QuickPrefixCache()
		cfg.Tenants = 3
		cfg.JobsPerTenant = 4
		cfg.Seed = 42
		return cfg
	}(), RunPrefixCache)},
}

// TestSweepsReproduce is the oracle every refactor of this package
// is judged by. For each sweep in the registry: (a) the -quick run,
// marshalled through WriteBenchJSON's encoder, equals the checked-in
// bench/baselines artifact byte for byte — field order, float formatting
// and config block included; (b) equal seeds give equal bytes, with
// nothing (wall clock, map order, goroutine scheduling) leaking into the
// artifact run to run. With -update, (a) rewrites a differing baseline
// instead of failing; (b) runs either way.
func TestSweepsReproduce(t *testing.T) {
	marshal := func(t *testing.T, name string, run func() (cfg, points any)) []byte {
		t.Helper()
		cfg, points := run()
		data, err := marshalBench(name, cfg, points)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, s := range Sweeps {
		t.Run(s.Name, func(t *testing.T) {
			quick := func() (cfg, points any) {
				cfg, points, _ = s.Run(Options{Quick: true})
				return cfg, points
			}
			baseline := filepath.Join("..", "..", "bench", "baselines", "BENCH_"+s.Name+".json")
			want, err := os.ReadFile(baseline)
			if err != nil && !*update {
				t.Fatal(err)
			}
			first := marshal(t, s.Name, quick)
			switch {
			case bytes.Equal(first, want):
			case *update:
				if err := os.WriteFile(baseline, first, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", baseline)
			default:
				t.Errorf("-quick run differs from %s:\n--- baseline ---\n%s\n--- run ---\n%s", baseline, want, first)
			}

			pin, ok := determinismPins[s.Name]
			if !ok {
				t.Fatal("sweep has no determinism pin")
			}
			if testing.Short() {
				t.Skip("determinism reruns in -short mode")
			}
			rerun := quick
			if pin.rerun != nil {
				rerun = pin.rerun
				first = marshal(t, s.Name, rerun)
			}
			for run := 1; run < pin.runs; run++ {
				if next := marshal(t, s.Name, rerun); !bytes.Equal(first, next) {
					t.Fatalf("run %d differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s", run, first, run, next)
				}
			}
		})
	}
}

// TestBaselinesMatchRegistry holds bench/baselines and determinismPins to
// the registry in both directions, as the docs checks hold FLAGS.md and
// EXPERIMENTS.md: every sweep has a baseline file and a pin, and a
// baseline or pin whose sweep is gone fails rather than lingering.
func TestBaselinesMatchRegistry(t *testing.T) {
	dir := filepath.Join("..", "..", "bench", "baselines")
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	orphans := map[string]bool{}
	for _, f := range files {
		orphans[filepath.Base(f)] = true
	}
	registered := map[string]bool{}
	for _, s := range Sweeps {
		registered[s.Name] = true
		file := "BENCH_" + s.Name + ".json"
		if !orphans[file] {
			t.Errorf("-exp %s has no %s", s.Name, filepath.Join(dir, file))
		}
		delete(orphans, file)
		if _, ok := determinismPins[s.Name]; !ok {
			t.Errorf("-exp %s has no determinism pin", s.Name)
		}
	}
	for file := range orphans {
		t.Errorf("%s belongs to no registered sweep", filepath.Join(dir, file))
	}
	for name := range determinismPins {
		if !registered[name] {
			t.Errorf("determinism pin %q names no registered sweep", name)
		}
	}
}
