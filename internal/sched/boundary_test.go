package sched

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

// decodeLoop starts an actor that issues n sequential one-token calls —
// the shape of a per-token pred loop — and records the virtual instant
// each one completes.
func decodeLoop(clk *simclock.Clock, s *Scheduler, wg *simclock.WaitGroup, n int, stamps *[]time.Duration) {
	wg.Add(1)
	clk.Go("decoder", func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := submit(s, target, 1); err != nil {
				return
			}
			*stamps = append(*stamps, clk.Now())
		}
	})
}

// checkOneStepPerToken asserts that every gap after the first completion
// is exactly one GPU iteration.
func checkOneStepPerToken(t *testing.T, who string, stamps []time.Duration, n int, step time.Duration) {
	t.Helper()
	if len(stamps) != n {
		t.Fatalf("%s completed %d calls, want %d", who, len(stamps), n)
	}
	for i := 1; i < n; i++ {
		if gap := stamps[i] - stamps[i-1]; gap != step {
			t.Errorf("%s: token %d came %v after token %d, want one iteration (%v)", who, i, gap, i-1, step)
		}
	}
}

// TestDecodeLoopRidesEveryIteration is the iteration-boundary order —
// retire, the woken threads run, drain, pack — seen from a per-token pred
// loop: while a multi-iteration call keeps the replica busy, a thread
// whose one-token call retired in a step resubmits in time to ride the
// very next one. With drain ahead of the woken threads the loop missed
// every other iteration (112.86 ms per token beside the sliced prefill,
// two steps, instead of 56.72). The work is the same either way — the
// step count is set by the long call — only who rides which step moves.
func TestDecodeLoopRidesEveryIteration(t *testing.T) {
	cost, draft := model.A100Llama13B(), model.A100Llama1B()
	const n, window = 10, DefaultSpecWindow
	cases := []struct {
		name  string
		long  Call
		step  time.Duration // one iteration carrying the long call's slice and one decode token
		steps int64
	}{
		{
			// 3,000 tokens in 128-token slices: 23 full iterations and one
			// of 56. 56.72 ms = 20 ms + 2 x 0.3 ms + 129 x 0.28 ms.
			name:  "sliced prefill",
			long:  Call{Model: target, Tokens: 3000},
			step:  cost.StepTime([]model.BatchCall{{NewTokens: DefaultQuantum}, {NewTokens: 1}}),
			steps: 24,
		},
		{
			// A fully accepted draft window of 4: every round pays
			// four serialized draft passes, computes 4 positions and
			// retires 5, so 101 tokens are 20 rounds and the closing
			// verify step.
			name: "spec decode run",
			long: Call{Model: target, Tokens: 101, Decode: true, Spec: &SpecCall{
				Draft:  draftModel,
				Accept: bitmap(100, func(int) bool { return true }),
			}},
			step: window*(draft.KernelOverhead+draft.PerSequence+draft.PerToken) +
				cost.StepTime([]model.BatchCall{{NewTokens: window}, {NewTokens: 1}}),
			steps: 21,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			s := newSched(clk)
			var stamps []time.Duration
			run(t, clk, func() {
				wg := clk.NewWaitGroup()
				wg.Add(1)
				clk.Go("long", func() {
					defer wg.Done()
					if err := s.SubmitCall(tc.long); err != nil {
						t.Errorf("SubmitCall: %v", err)
					}
				})
				clk.Sleep(5 * time.Millisecond)
				decodeLoop(clk, s, wg, n, &stamps)
				wg.Wait()
			})
			checkOneStepPerToken(t, "decoder", stamps, n, tc.step)
			if st := s.Stats(); st.Steps != tc.steps || st.ExecutedTokens != st.Tokens {
				t.Fatalf("steps = %d, executed = %d of %d tokens; want %d steps and every token executed once",
					st.Steps, st.ExecutedTokens, st.Tokens, tc.steps)
			}
		})
	}
}

// TestDrainedBatchDecodesOneStepPerToken is the same hand-off with nothing
// long beside it: one caller, or four in lock-step, whose active set
// drains at every step. The batch retires and resubmits at one virtual
// instant and the replica cuts the next step at that instant — a drained
// boundary is ordered like any other and holds nothing back for company —
// so a token costs one GPU step (20.58 ms alone, 22.32 ms for four) and
// six rounds are six steps however many callers ride them.
func TestDrainedBatchDecodesOneStepPerToken(t *testing.T) {
	const n = 6
	for _, callers := range []int{1, 4} {
		t.Run(fmt.Sprintf("callers=%d", callers), func(t *testing.T) {
			clk := simclock.New()
			s := newSched(clk)
			stamps := make([][]time.Duration, callers)
			run(t, clk, func() {
				wg := clk.NewWaitGroup()
				clk.Sleep(5 * time.Millisecond)
				for i := range stamps {
					decodeLoop(clk, s, wg, n, &stamps[i])
				}
				wg.Wait()
			})
			batch := make([]model.BatchCall, callers)
			for i := range batch {
				batch[i].NewTokens = 1
			}
			step := model.A100Llama13B().StepTime(batch)
			for i := range stamps {
				checkOneStepPerToken(t, fmt.Sprintf("caller %d", i), stamps[i], n, step)
			}
			if st := s.Stats(); st.Steps != n || st.ExecutedTokens != st.Tokens {
				t.Fatalf("steps = %d, executed = %d of %d tokens; want %d steps and every token executed once",
					st.Steps, st.ExecutedTokens, st.Tokens, n)
			}
		})
	}
}

// TestArrivalAtIdleGPUStartsAtOnce pins when a call starts. One that finds
// the replica idle is stepped at the instant it arrives and completes one
// solo step later; one that arrives 5 ms into that step joins at the
// boundary that ends it and completes one step after the boundary. Late
// company costs the latecomer at most a step and the first arrival
// nothing.
func TestArrivalAtIdleGPUStartsAtOnce(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	var done [2]time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := range done {
			wg.Add(1)
			clk.Go("caller", func() {
				defer wg.Done()
				submit(s, target, 1)
				done[i] = clk.Now()
			})
			clk.Sleep(5 * time.Millisecond)
		}
		wg.Wait()
	})
	step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: 1}})
	if done[0] != step || done[1] != 2*step {
		t.Fatalf("calls completed at %v and %v, want %v (its own step) and %v (one step after the boundary it joined)",
			done[0], done[1], step, 2*step)
	}
}

// TestBoundaryYieldIsPerReplica runs two replicas out of phase under
// round-robin: each carries one sliced prefill (the second starts 10 ms
// late) and the two decoders' calls alternate, so decoder i's loop lands
// on replica i every time. A boundary lets its own replica's woken thread
// run and nothing else: each decoder advances one token per iteration of
// its replica while the other replica is mid-step, and neither replica
// runs a step it would not have run alone.
func TestBoundaryYieldIsPerReplica(t *testing.T) {
	clk := simclock.New()
	s := newMulti(clk, 2, NewRoundRobin())
	const n = 10
	var stamps [2][]time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < 2; i++ {
			wg.Add(1)
			clk.Go("prefill", func() {
				defer wg.Done()
				submit(s, target, 3000)
			})
			clk.Sleep(10 * time.Millisecond)
		}
		for i := range stamps {
			decodeLoop(clk, s, wg, n, &stamps[i])
		}
		wg.Wait()
	})
	step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: DefaultQuantum}, {NewTokens: 1}})
	for i := range stamps {
		checkOneStepPerToken(t, fmt.Sprintf("decoder %d", i), stamps[i], n, step)
	}
	if d := stamps[1][0] - stamps[0][0]; d != 10*time.Millisecond {
		t.Fatalf("replicas are %v apart, want them 10ms out of phase", d)
	}
	for _, rs := range s.Stats().Replicas {
		if rs.Calls != n+1 || rs.Steps != 24 {
			t.Fatalf("replica %d: %d calls in %d steps, want %d calls in 24 steps", rs.ID, rs.Calls, rs.Steps, n+1)
		}
	}
}

// BenchmarkStepLoop is the host-clock price of one GPU iteration: ns/op
// and allocs/op per step of a replica that carries 1, 8 or 32 threads
// each resubmitting a one-token call the moment the last one retires —
// beside a sliced prefill, and (drained) alone in lock-step, where every
// step empties the active set and the actor parks on its queue between
// steps. It is the tracked instrument for what the iteration boundary
// costs the simulator. calls/step says how many calls rode each step and
// ns/call divides the same wall time by calls executed: a loop that lets
// more callers ride costs more per step and no more per call. Run with
// -cpu 1: the simulation runs one actor at a time and a second processor
// only adds cross-core wakes.
func BenchmarkStepLoop(b *testing.B) {
	for _, drained := range []bool{false, true} {
		for _, callers := range []int{1, 8, 32} {
			name := fmt.Sprintf("callers=%d", callers)
			if drained {
				name = "drained/" + name
			}
			b.Run(name, func(b *testing.B) {
				clk := simclock.New()
				s := newSched(clk)
				var stop atomic.Bool
				b.ReportAllocs()
				b.ResetTimer()
				clk.Go("root", func() {
					// b.N iterations either way: one 128-token slice of the
					// prefill each, or b.N lock-step rounds.
					rounds := b.N
					if !drained {
						rounds = math.MaxInt
						clk.Go("prefill", func() {
							submit(s, target, b.N*DefaultQuantum)
							stop.Store(true)
						})
					}
					for i := 0; i < callers; i++ {
						clk.Go("caller", func() {
							for r := 0; r < rounds && !stop.Load(); r++ {
								if submit(s, target, 1) != nil {
									return
								}
							}
						})
					}
				})
				clk.WaitQuiescent()
				b.StopTimer()
				st := s.Stats()
				clk.Shutdown()
				b.ReportMetric(st.AvgBatch, "calls/step")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Calls), "ns/call")
			})
		}
	}
}
