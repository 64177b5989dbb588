package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// TestCacheAffinityAcrossForks checks the full kernel path of the
// cache-affinity dispatcher: every pred of a conversation — the root
// prefill, continued decode, and decode on copy-on-write forks — carries
// the same root-KV affinity key, so all of it lands on one replica.
func TestCacheAffinityAcrossForks(t *testing.T) {
	clk := simclock.New()
	k := New(clk, Config{
		Models:     map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Replicas:   4,
		Dispatcher: &sched.CacheAffinity{},
	})
	prog := func(ctx *Ctx) error {
		root, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer root.Remove()
		toks := ctx.Tokenize("shared conversation prefix for every fork")
		pos := make([]int, len(toks))
		for i := range pos {
			pos[i] = i
		}
		if _, err := ctx.Pred(root, toks, pos); err != nil {
			return err
		}
		// Fork the prefix three ways; each branch decodes independently.
		var threads []*Thread
		for b := 0; b < 3; b++ {
			f, err := ctx.KvFork(root)
			if err != nil {
				return err
			}
			th, err := ctx.Spawn(func(tc *Ctx) error {
				defer f.Remove()
				for i := 0; i < 4; i++ {
					if _, err := tc.Pred(f, []token.ID{token.ID(100 + i)}, []int{f.Len()}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			threads = append(threads, th)
		}
		for _, th := range threads {
			if err := th.Join(); err != nil {
				return err
			}
		}
		return nil
	}
	drive(t, clk, func() {
		p := k.Submit("forker", prog)
		if err := p.Wait(); err != nil {
			t.Errorf("program: %v", err)
		}
	})

	st := k.Scheduler().Stats()
	const wantCalls = 1 + 3*4 // prefill + 3 forks × 4 decodes
	if st.Calls != wantCalls {
		t.Fatalf("calls = %d, want %d", st.Calls, wantCalls)
	}
	var home int
	for _, rs := range st.Replicas {
		if rs.Calls == 0 {
			continue
		}
		home++
		if rs.Calls != wantCalls {
			t.Fatalf("replica %d got %d of %d calls: forks strayed (%+v)",
				rs.ID, rs.Calls, wantCalls, st.Replicas)
		}
	}
	if home != 1 {
		t.Fatalf("conversation spread over %d replicas, want 1 (%+v)", home, st.Replicas)
	}
}
