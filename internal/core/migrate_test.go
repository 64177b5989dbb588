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
// and when to cold-start by recomputing on the destination.
func TestMigrateDecisionTable(t *testing.T) {
	// A clearly overloaded home the policy would otherwise move away
	// from: 2 families at home, home 10x the min, big queueing benefit.
	overloaded := migrateDecision{
		HomeLoad:      2000,
		MinLoad:       200,
		MeanLoad:      700,
		RootsAtHome:   2,
		Threshold:     1.5,
		TransferCost:  10 * time.Millisecond,
		RecomputeCost: 100 * time.Millisecond,
		GapBenefit:    500 * time.Millisecond,
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
			// An expensive prefix (long, costly to re-prefill) is worth
			// the fabric copy.
			name: "expensive prefix migrates",
			in:   overloaded,
			want: choiceMigrate,
		},
		{
			// A cheap prefix (re-prefill costs less than serializing the
			// pages over the wire) cold-starts on the destination.
			name: "cheap prefix recomputes",
			in: mod(func(in *migrateDecision) {
				in.TransferCost = 100 * time.Millisecond
				in.RecomputeCost = 10 * time.Millisecond
			}),
			want: choiceRecompute,
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
// migration engine reads comes from the file's pins, with no memory
// daemon on the kernel. Two families are homed at replica 0 of 2, and a
// sibling thread's long prefill on one family's file overloads that home.
// A second pred on the same file routes while the sibling's still holds
// it: the move the load picture wants is refused as in flight and
// counted, and the family stays home.
func TestMigrateRefusesFileASiblingPredHolds(t *testing.T) {
	const replicas, prefix = 2, 256
	dispatcher, err := sched.NewDispatcher("cache-affinity-migrate")
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	k := New(clk, Config{
		Models:     map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Replicas:   replicas,
		Dispatcher: dispatcher,
	})
	if k.KVD().Enabled() {
		t.Fatal("kernel has a memory daemon; the pin must not need one")
	}
	seq := func(first token.ID, base, n int) ([]token.ID, []int) {
		toks, pos := make([]token.ID, n), make([]int, n)
		for i := range toks {
			toks[i], pos[i] = token.ID(base+i), base+i
		}
		if base == 0 {
			toks[0] = first
		}
		return toks, pos
	}
	var root model.CtxHash
	var pinsAtRoute int
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			var files []*kvfs.File
			for i := 0; i < 2; i++ {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				toks, pos := seq(abortFirstToken(replicas, 1_000_000+i*10_000), 0, prefix)
				if _, err := ctx.Pred(f, toks, pos); err != nil {
					return err
				}
				files = append(files, f)
			}
			f := files[0]
			root = f.Root()
			toks, pos := seq(0, f.Len(), 4096)
			sibling, err := ctx.Spawn(func(tc *Ctx) error {
				_, err := tc.Pred(f, toks, pos)
				return err
			})
			if err != nil {
				return err
			}
			if err := ctx.Sleep(time.Millisecond); err != nil {
				return err
			}
			pinsAtRoute = f.Pins()
			toks, pos = seq(0, f.Len(), 1)
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
