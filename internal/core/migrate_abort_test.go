package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// abortFirstToken picks a token whose single-entry context hash homes to
// replica 0 under hash % replicas, searching deterministically from seed
// (the experiments package's skew trick, inlined).
func abortFirstToken(replicas, seed int) token.ID {
	for t := seed; ; t++ {
		if uint64(model.CtxHash(0).Extend(token.ID(t), 0))%uint64(replicas) == 0 {
			return token.ID(t)
		}
	}
}

// TestMigrationTransferAbortReleasesReservation pins the error path
// between ReserveMigration and ReleaseMigration: when the interconnect
// fails mid-transfer, the migration must abort cleanly — destination
// reservation released (no leaked GPU pages), the prefix still served at
// its old home, and the abort visible in the engine's ledger. Before the
// one-shot release guard in transfer(), a failed transfer returned with
// the destination pages still reserved, leaking pool capacity forever.
func TestMigrationTransferAbortReleasesReservation(t *testing.T) {
	const (
		replicas = 4
		families = 4
		prefix   = 384
		suffix   = 128
	)
	dispatcher, err := sched.NewDispatcher("cache-affinity-migrate")
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	ic := netsim.DefaultInterconnect(clk)
	ic.SetFault(func(pages int, bytes int64) netsim.TransferFault {
		return netsim.TransferFault{Err: errors.New("injected transfer failure")}
	})
	k := New(clk, Config{
		Models:       map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Replicas:     replicas,
		Dispatcher:   dispatcher,
		Interconnect: ic,
	})

	var seededPages int
	var roots []model.CtxHash
	drive(t, clk, func() {
		// Seed every family homed to replica 0, making it the hotspot the
		// engine will try to migrate away from.
		seed := k.Submit("admin", func(ctx *Ctx) error {
			for i := 0; i < families; i++ {
				f, err := ctx.KvCreate(fmt.Sprintf("fam-%d", i), kvfs.ModeShared)
				if err != nil {
					return err
				}
				toks := make([]token.ID, prefix)
				pos := make([]int, prefix)
				toks[0] = abortFirstToken(replicas, 1_000_000+i*10_000)
				for j := 1; j < prefix; j++ {
					toks[j] = token.ID(2_000_000 + i*10_000 + j)
					pos[j] = j
				}
				_, err = ctx.Pred(f, toks, pos)
				if err != nil {
					return err
				}
				roots = append(roots, f.Root())
			}
			return nil
		})
		if err := seed.Wait(); err != nil {
			t.Errorf("seed: %v", err)
			return
		}
		seededPages = k.FS().Stats().GPUPages

		// Closed-loop clients hammer forks of the skewed families so the
		// engine keeps deciding to migrate — and every transfer fails.
		wg := clk.NewWaitGroup()
		for fam := 0; fam < families; fam++ {
			for c := 0; c < 2; c++ {
				fam, c := fam, c
				wg.Add(1)
				p := k.Submit(fmt.Sprintf("fam%d-c%d", fam, c), func(ctx *Ctx) error {
					if err := ctx.Sleep(time.Duration(fam*2+c) * time.Millisecond); err != nil {
						return err
					}
					parent, err := ctx.KvOpen(fmt.Sprintf("fam-%d", fam), false)
					if err != nil {
						return err
					}
					for r := 0; r < 2; r++ {
						fork, err := ctx.KvFork(parent)
						if err != nil {
							return err
						}
						toks := make([]token.ID, suffix)
						pos := make([]int, suffix)
						base := fork.Len()
						for i := range toks {
							toks[i] = token.ID(3_000_000 + fam*100_000 + c*10_000 + r*1_000 + i)
							pos[i] = base + i
						}
						if _, err := ctx.Pred(fork, toks, pos); err != nil {
							fork.Remove()
							return err
						}
						fork.Remove()
					}
					return nil
				})
				clk.Go("join", func() {
					defer wg.Done()
					if err := p.Wait(); err != nil {
						t.Errorf("client: %v", err)
					}
				})
			}
		}
		wg.Wait()
	})

	st := k.Stats()
	if st.Migration.TransferAborts == 0 {
		t.Fatalf("no transfer aborted — the injected interconnect failure never bit (migrations=%d)",
			st.Migration.Migrations)
	}
	if st.Migration.Migrations != 0 {
		t.Fatalf("%d migrations completed over a dead interconnect", st.Migration.Migrations)
	}
	// Every fork is removed; only the seeded prefixes remain resident. If
	// an aborted transfer leaked its destination reservation, GPUPages
	// sits above the seeded baseline forever.
	if got := k.FS().Stats().GPUPages; got != seededPages {
		t.Fatalf("GPU pages = %d after aborted migrations, want the seeded baseline %d (leaked migration reservation)",
			got, seededPages)
	}
	// Aborted moves must not have re-homed anything.
	for i, root := range roots {
		if home, ok := k.PrefixHome(root); ok && home != 0 {
			t.Fatalf("family %d re-homed to replica %d despite its transfer aborting", i, home)
		}
	}
}
