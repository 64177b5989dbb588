package core

import (
	"testing"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// TestMigrateDecisionTable exercises the placement policy the migration
// engine applies to every affinity-carrying pred: when to stay on the
// home replica, when to copy the prefix's pages over the interconnect,
// and when to re-home a family that has nothing resident yet.
func TestMigrateDecisionTable(t *testing.T) {
	// A clearly overloaded home the policy would otherwise move away
	// from: 2 families at home, home 10x the min, big queueing benefit.
	overloaded := migrateDecision{
		HomeLoad:     2000,
		MinLoad:      200,
		MeanLoad:     700,
		RootsAtHome:  2,
		Threshold:    1.5,
		TransferCost: 10 * time.Millisecond,
		GapBenefit:   500 * time.Millisecond,
	}
	mod := func(fn func(*migrateDecision)) migrateDecision {
		in := overloaded
		fn(&in)
		return in
	}

	cases := []struct {
		name string
		in   migrateDecision
		want migrateChoice
	}{
		{
			name: "expensive prefix migrates",
			in:   overloaded,
			want: choiceMigrate,
		},
		{
			// A prefill whose file holds only its own tokens has no pages
			// to copy: the family moves even where a copy would cost more
			// than the move saves.
			name: "family with nothing resident re-homes",
			in: mod(func(in *migrateDecision) {
				in.Fresh = true
				in.TransferCost = time.Second
			}),
			want: choiceRehome,
		},
		{
			name: "family with nothing resident stays home while locked",
			in: mod(func(in *migrateDecision) {
				in.Fresh = true
				in.Locked = true
			}),
			want: choiceStay,
		},
		{
			// 16 resident tokens under a 240-token prefill are 16 pages,
			// about 17 ms to copy at 100 Gbit/s, while re-prefilling the
			// 16 tokens would take 4.5 ms at 280 µs/token. A prefix moves
			// only by copying its pages, so the copy is what it costs.
			name: "prefix cheaper to recompute than to copy transfers",
			in: mod(func(in *migrateDecision) {
				in.TransferCost = 17 * time.Millisecond
			}),
			want: choiceMigrate,
		},
		{
			name: "prefix cheaper to recompute stays when the copy costs more than it saves",
			in: mod(func(in *migrateDecision) {
				in.TransferCost = 17 * time.Millisecond
				in.GapBenefit = 10 * time.Millisecond
			}),
			want: choiceStay,
		},
		{
			name: "locked file stays home",
			in:   mod(func(in *migrateDecision) { in.Locked = true }),
			want: choiceStay,
		},
		{
			name: "in-flight file stays home",
			in:   mod(func(in *migrateDecision) { in.InFlight = true }),
			want: choiceStay,
		},
		{
			name: "destination pressure refuses the move",
			in:   mod(func(in *migrateDecision) { in.PressureHigh = true }),
			want: choiceStay,
		},
		{
			name: "cooldown holds a recently moved family",
			in:   mod(func(in *migrateDecision) { in.Cooldown = true }),
			want: choiceStay,
		},
		{
			// A replica's only family cannot be usefully moved: its calls
			// serialize on whichever replica holds the prefix.
			name: "lone family stays home",
			in:   mod(func(in *migrateDecision) { in.RootsAtHome = 1 }),
			want: choiceStay,
		},
		{
			name: "balanced load stays home",
			in: mod(func(in *migrateDecision) {
				in.HomeLoad, in.MinLoad, in.MeanLoad = 700, 650, 675
			}),
			want: choiceStay,
		},
		{
			name: "home already least loaded stays",
			in: mod(func(in *migrateDecision) {
				in.HomeLoad, in.MinLoad = 200, 200
			}),
			want: choiceStay,
		},
		{
			// Overloaded by the threshold test, but the queueing saved is
			// smaller than the cheapest move: not worth it.
			name: "move costing more than it saves stays",
			in: mod(func(in *migrateDecision) {
				in.GapBenefit = 5 * time.Millisecond
			}),
			want: choiceStay,
		},
		{
			name: "idle system stays home",
			in: mod(func(in *migrateDecision) {
				in.HomeLoad, in.MinLoad, in.MeanLoad = 0, 0, 0
			}),
			want: choiceStay,
		},
	}
	for _, tc := range cases {
		if got := decide(tc.in); got != tc.want {
			t.Errorf("%s: decide = %v, want %v (in: %+v)", tc.name, got, tc.want, tc.in)
		}
	}
}

// TestMigrateRefusesFileASiblingPredHolds: the in-flight flag the
// migration engine reads comes from the file's pins. Two families are
// homed at replica 0 of 2, and a sibling thread's long prefill on one
// family's file overloads that home.
// A second pred on the same file routes while the sibling's still holds
// it: the move the load picture wants is refused as in flight and
// counted, and the family stays home.
func TestMigrateRefusesFileASiblingPredHolds(t *testing.T) {
	clk, k := migrateKernel(t)
	var root model.CtxHash
	var pinsAtRoute int
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			f, sibling, err := overloadHome(ctx)
			if err != nil {
				return err
			}
			root = f.Root()
			pinsAtRoute = f.Pins()
			toks, pos := tokenSeq(0, f.Len(), 1)
			if _, err := ctx.Pred(f, toks, pos); err != nil {
				return err
			}
			return sibling.Join()
		})
		if err := p.Wait(); err != nil {
			t.Errorf("program: %v", err)
		}
	})
	if pinsAtRoute != 1 {
		t.Fatalf("file held %d pins before the second pred, want the sibling's one", pinsAtRoute)
	}
	st := k.Stats().Migration
	if st.RefusedInFlight < 1 || st.Migrations != 0 || st.ColdStarts != 0 {
		t.Fatalf("refused in flight %d, migrations %d, cold starts %d; want >= 1, 0, 0",
			st.RefusedInFlight, st.Migrations, st.ColdStarts)
	}
	if home, ok := k.PrefixHome(root); !ok || home != 0 {
		t.Fatalf("family home = %d (known %v), want replica 0 unchanged", home, ok)
	}
}

// TestMigrateRehomesFreshPrefill: a prefill on a new file has nothing
// computed to copy. Two families are homed at replica 0 of 2 and a
// sibling thread's long prefill overloads it; a third family's first
// prefill, hash-homed at replica 0 too, is re-homed at replica 1 and runs
// there, with no fabric time charged and no page moved.
func TestMigrateRehomesFreshPrefill(t *testing.T) {
	clk, k := migrateKernel(t)
	var root model.CtxHash
	var before MigrationStats
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			_, sibling, err := overloadHome(ctx)
			if err != nil {
				return err
			}
			before = k.Stats().Migration
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			toks, pos := tokenSeq(abortFirstToken(2, 1_020_000), 0, 256)
			if _, err := ctx.Pred(f, toks, pos); err != nil {
				return err
			}
			root = f.Root()
			return sibling.Join()
		})
		if err := p.Wait(); err != nil {
			t.Errorf("program: %v", err)
		}
	})
	st := k.Stats()
	mig := st.Migration
	if mig.ColdStarts != before.ColdStarts+1 {
		t.Fatalf("cold starts %d -> %d, want one more", before.ColdStarts, mig.ColdStarts)
	}
	if mig.Migrations != 0 || mig.MigratedPages != 0 || mig.MigrateTime != 0 {
		t.Fatalf("migrations %d, pages %d, fabric time %v; want 0, 0, 0",
			mig.Migrations, mig.MigratedPages, mig.MigrateTime)
	}
	if home, ok := k.PrefixHome(root); !ok || home != 1 {
		t.Fatalf("fresh family home = %d (known %v), want replica 1", home, ok)
	}
	if calls := st.Sched.Replicas[1].Calls; calls != 1 {
		t.Fatalf("replica 1 ran %d calls, want the fresh prefill alone", calls)
	}
}

// TestMigrateCopiesOnlyComputedPages: a move copies the pages the file
// held before the routed call, not the ones the call appends, which the
// GPU has not computed yet. A family of 256 tokens (16 pages) is homed at
// replica 0 ahead of overloadHome's two; its next pred, 40 tokens, moves
// it to replica 1, and the move counts and bills those 16 pages, not the
// 19 the file holds after the append.
func TestMigrateCopiesOnlyComputedPages(t *testing.T) {
	clk, k := migrateKernel(t)
	var root model.CtxHash
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			toks, pos := tokenSeq(abortFirstToken(2, 1_030_000), 0, 256)
			if _, err := ctx.Pred(f, toks, pos); err != nil {
				return err
			}
			_, sibling, err := overloadHome(ctx)
			if err != nil {
				return err
			}
			toks, pos = tokenSeq(0, f.Len(), 40)
			if _, err := ctx.Pred(f, toks, pos); err != nil {
				return err
			}
			root = f.Root()
			return sibling.Join()
		})
		if err := p.Wait(); err != nil {
			t.Errorf("program: %v", err)
		}
	})
	mig := k.Stats().Migration
	if mig.Migrations != 1 || mig.MigratedTokens != 256 || mig.MigratedPages != 16 {
		t.Fatalf("migrations %d, tokens %d, pages %d; want 1, 256, 16",
			mig.Migrations, mig.MigratedTokens, mig.MigratedPages)
	}
	if want := k.mig.ic.PageTransferTime(16, k.fs.PageBytes()); mig.MigrateTime != want {
		t.Fatalf("fabric time %v, want 16 pages' %v", mig.MigrateTime, want)
	}
	if home, ok := k.PrefixHome(root); !ok || home != 1 {
		t.Fatalf("family home = %d (known %v), want replica 1", home, ok)
	}
}

// migrateKernel is a two-replica kernel dispatching with the migration
// engine.
func migrateKernel(t *testing.T) (*simclock.Clock, *Kernel) {
	t.Helper()
	dispatcher, err := sched.NewDispatcher("cache-affinity-migrate")
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	return clk, New(clk, Config{
		Models:     map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Replicas:   2,
		Dispatcher: dispatcher,
	})
}

// overloadHome homes two 256-token families at replica 0 of
// migrateKernel's two, then spawns a sibling thread whose 4,096-token
// prefill on the first family's file overloads that home, and returns
// once the prefill is running.
func overloadHome(ctx *Ctx) (*kvfs.File, *Thread, error) {
	var files []*kvfs.File
	for i := 0; i < 2; i++ {
		f, err := ctx.KvAnon()
		if err != nil {
			return nil, nil, err
		}
		toks, pos := tokenSeq(abortFirstToken(2, 1_000_000+i*10_000), 0, 256)
		if _, err := ctx.Pred(f, toks, pos); err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	f := files[0]
	toks, pos := tokenSeq(0, f.Len(), 4096)
	sibling, err := ctx.Spawn(func(tc *Ctx) error {
		_, err := tc.Pred(f, toks, pos)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return f, sibling, ctx.Sleep(time.Millisecond)
}

// tokenSeq is n tokens at positions base…base+n-1, each token its
// position, except that a sequence starting a file begins with first.
func tokenSeq(first token.ID, base, n int) ([]token.ID, []int) {
	toks, pos := make([]token.ID, n), make([]int, n)
	for i := range toks {
		toks[i], pos[i] = token.ID(base+i), base+i
	}
	if base == 0 {
		toks[0] = first
	}
	return toks, pos
}
