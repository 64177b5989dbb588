package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// TestLoneCallRecordsNoDelay holds the per-advance queue delay to what a
// call alone on the GPU waits: nothing. A 300-token prefill is three
// 128-token-quantum slices, a plain 16-token decode run sixteen one-token
// steps, and a fully accepted 21-token speculated run four draft/verify
// rounds and a closing step; each advance records one sample and every
// sample is zero. Charging a sliced call one solo pass for its whole
// sojourn read 40.6 ms of delay on the idle prefill, one kernel overhead
// and per-sequence cost for each slice past the first.
func TestLoneCallRecordsNoDelay(t *testing.T) {
	cases := []struct {
		name     string
		call     Call
		advances int64
	}{
		{"sliced prefill", Call{Model: target, Tokens: 300}, 3},
		{"decode run", Call{Model: target, Tokens: 16, Decode: true}, 16},
		{"speculated run", Call{Model: target, Tokens: 21, Decode: true, Spec: &SpecCall{
			Draft: draftModel, Accept: bitmap(20, func(int) bool { return true }),
		}}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			s := specSched(clk, DefaultLanes())
			run(t, clk, func() {
				if err := s.SubmitCall(tc.call); err != nil {
					t.Errorf("SubmitCall: %v", err)
				}
			})
			lane, replica := s.LaneDelay(Normal), s.replicas[0].delayHist
			for _, h := range []struct {
				name  string
				count int64
				max   time.Duration
			}{{"lane", lane.Count(), lane.Max()}, {"replica", replica.Count(), replica.Max()}} {
				if h.count != tc.advances || h.max != 0 {
					t.Errorf("%s histogram: %d samples, max %v; want %d samples, all zero", h.name, h.count, h.max, tc.advances)
				}
			}
		})
	}
}

// TestQueueDelayTimeIdentity pins the queue delay of every advance of a
// hand-built schedule at the virtual instant its iteration ends, and
// checks each call's time identity: its delays plus its solo costs sum to
// its completion minus its submission. A solo cost is the call's own
// batch entry (20 ms + 0.3 ms + 0.28 ms per position on the 13B target)
// plus its own draft passes (2.08 ms per proposed token on the 1B draft).
func TestQueueDelayTimeIdentity(t *testing.T) {
	// restore is an OnPreempt hook whose resume bills a 5 ms KV restore.
	restore := func(preempted bool) time.Duration {
		if preempted {
			return 0
		}
		return us(5000)
	}
	type advance struct{ end, delay, own time.Duration }
	type job struct {
		at   time.Duration
		call Call
		want []advance
	}
	cases := []struct {
		name   string
		config func() Config
		jobs   []job
	}{
		{
			// A 300-token prefill, then a 3-token decode run that arrives
			// 1 ms in and rides its last two slices: the prefill's delay is
			// the run's 0.58 ms entry in each shared step, the run's first
			// is the wait for the prefill's first slice to end, and its
			// last step, alone, costs it nothing.
			name:   "sliced prefill beside a decode run",
			config: func() Config { return Config{} },
			jobs: []job{
				{0, Call{Model: target, Tokens: 300}, []advance{
					{us(56140), 0, us(56140)},
					{us(112860), us(580), us(56140)},
					{us(146060), us(580), us(32620)},
				}},
				{us(1000), Call{Model: target, Tokens: 3, Decode: true}, []advance{
					{us(112860), us(91280), us(20580)},
					{us(146060), us(12620), us(20580)},
					{us(166640), 0, us(20580)},
				}},
			},
		},
		{
			// An interactive 8-token prompt fills an 8-token step budget
			// and preempts a batch prefill after its first slice. The
			// batch call's second advance waits out the interactive step
			// and its own 5 ms resume restore: both are delay.
			name: "preempted batch call with a resume restore",
			config: func() Config {
				return Config{PriorityPolicy: &Lanes{SliceTokens: 8, MaxStepTokens: 8, AgeAfter: -1}}
			},
			jobs: []job{
				{0, Call{Model: target, Tokens: 16, Priority: Batch, OnPreempt: restore}, []advance{
					{us(22540), 0, us(22540)},
					{us(72620), us(27540), us(22540)},
				}},
				{us(1000), Call{Model: target, Tokens: 8, Priority: Interactive}, []advance{
					{us(45080), us(21540), us(22540)},
				}},
			},
		},
		{
			// An 11-token speculated run: two fully accepted rounds of
			// four drafts retire five tokens each, and a plain step the
			// last. A one-token call rides its second round and waits out
			// the first; the round's delay is that call's 0.58 ms entry.
			name:   "spec round",
			config: func() Config { return Config{} },
			jobs: []job{
				{0, Call{Model: target, Tokens: 11, Decode: true, Spec: &SpecCall{
					Draft: draftModel, Accept: bitmap(10, func(int) bool { return true }),
				}}, []advance{
					{us(29740), 0, us(29740)},
					{us(60060), us(580), us(29740)},
					{us(80640), 0, us(20580)},
				}},
				{us(1000), Call{Model: target, Tokens: 1}, []advance{
					{us(60060), us(38480), us(20580)},
				}},
			},
		},
		{
			// The replica crashes at the boundary after the prefill's
			// first slice. The lost advance stays in both sums, the
			// requeued call restarts from its first token, and the resume
			// restore of the pin the crash released is delay.
			name: "crash-requeued call",
			config: func() Config {
				boundaries := 0
				return Config{CrashCheck: func(int) bool {
					boundaries++
					return boundaries == 2
				}}
			},
			jobs: []job{
				{0, Call{Model: target, Tokens: 300, OnPreempt: restore}, []advance{
					{us(56140), 0, us(56140)},
					{us(117280), us(5000), us(56140)},
					{us(173420), 0, us(56140)},
					{us(206040), 0, us(32620)},
				}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			cfg := tc.config()
			cfg.Models = map[string]model.CostModel{target: model.A100Llama13B(), draftModel: model.A100Llama1B()}
			s := New(clk, cfg)
			var mu sync.Mutex
			got := map[int][]advance{} // by the call's token count, unique per case
			s.advanced = func(c *call, end, delay time.Duration) {
				mu.Lock()
				defer mu.Unlock()
				got[c.tokens] = append(got[c.tokens], advance{end: end, delay: delay})
			}
			done := make([]time.Duration, len(tc.jobs))
			run(t, clk, func() {
				wg := clk.NewWaitGroup()
				for i, j := range tc.jobs {
					wg.Add(1)
					clk.Go("caller", func() {
						defer wg.Done()
						clk.Sleep(j.at)
						if err := s.SubmitCall(j.call); err != nil {
							t.Errorf("SubmitCall: %v", err)
						}
						done[i] = clk.Now()
					})
				}
				wg.Wait()
			})
			mu.Lock()
			defer mu.Unlock()
			for i, j := range tc.jobs {
				adv := got[j.call.Tokens]
				if len(adv) != len(j.want) {
					t.Fatalf("%d-token call: %d advances %v, want %d", j.call.Tokens, len(adv), adv, len(j.want))
				}
				var sum time.Duration
				for k, w := range j.want {
					if adv[k].end != w.end || adv[k].delay != w.delay {
						t.Errorf("%d-token call, advance %d: delay %v at %v, want %v at %v",
							j.call.Tokens, k, adv[k].delay, adv[k].end, w.delay, w.end)
					}
					sum += adv[k].delay + w.own
				}
				if sojourn := done[i] - j.at; sum != sojourn {
					t.Errorf("%d-token call: delays plus solo costs = %v, sojourn = %v", j.call.Tokens, sum, sojourn)
				}
			}
		})
	}
}
