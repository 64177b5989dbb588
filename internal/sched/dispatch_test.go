package sched

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

func newMulti(clk *simclock.Clock, replicas int, d Dispatcher) *Scheduler {
	return New(clk, Config{
		Models: map[string]model.CostModel{
			target:  model.A100Llama13B(),
			"draft": model.A100Llama1B(),
		},
		Replicas:   replicas,
		Dispatcher: d,
	})
}

func TestRoundRobinFairness(t *testing.T) {
	clk := simclock.New()
	s := newMulti(clk, 4, NewRoundRobin())
	const n = 16
	run(t, clk, func() {
		for i := 0; i < n; i++ {
			if err := submit(s, target, 1); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
	})
	st := s.Stats()
	if st.Calls != n {
		t.Fatalf("calls = %d", st.Calls)
	}
	if len(st.Replicas) != 4 {
		t.Fatalf("replicas = %d", len(st.Replicas))
	}
	for _, rs := range st.Replicas {
		if rs.Calls != n/4 {
			t.Fatalf("replica %d got %d calls, want %d (stats %+v)", rs.ID, rs.Calls, n/4, st.Replicas)
		}
	}
}

func TestLeastLoadedAvoidsBusyReplica(t *testing.T) {
	clk := simclock.New()
	s := newMulti(clk, 2, LeastLoaded{})
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		// A huge prefill lands on replica 0 (all idle, lowest ID wins)
		// and occupies it for ~860ms.
		wg.Add(1)
		clk.Go("prefill", func() {
			defer wg.Done()
			submit(s, target, 3000)
		})
		clk.Sleep(5 * time.Millisecond)
		// Small decode calls arriving while replica 0 grinds must all be
		// steered to idle replica 1.
		for i := 0; i < 4; i++ {
			wg.Add(1)
			clk.Go("decode", func() {
				defer wg.Done()
				submit(s, target, 1)
			})
		}
		wg.Wait()
	})
	st := s.Stats()
	if st.Replicas[0].Calls != 1 {
		t.Fatalf("replica 0 calls = %d, want only the prefill", st.Replicas[0].Calls)
	}
	if st.Replicas[1].Calls != 4 {
		t.Fatalf("replica 1 calls = %d, want all 4 decodes", st.Replicas[1].Calls)
	}
}

func TestLeastLoadedPrefersShorterQueue(t *testing.T) {
	// Pure view-level check: pending tokens dominate, busy horizon breaks
	// ties, then replica ID.
	d := LeastLoaded{}
	views := []ReplicaView{
		{ID: 0, QueuedTokens: 500, InflightTokens: 100},
		{ID: 1, QueuedTokens: 50, InflightTokens: 100},
		{ID: 2, QueuedTokens: 800},
	}
	if got := d.Pick(Call{}, views); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	tie := []ReplicaView{
		{ID: 0, QueuedTokens: 100, BusyUntil: 80 * time.Millisecond, Now: 10 * time.Millisecond},
		{ID: 1, QueuedTokens: 100, BusyUntil: 20 * time.Millisecond, Now: 10 * time.Millisecond},
	}
	if got := d.Pick(Call{}, tie); got != 1 {
		t.Fatalf("tie pick = %d, want 1 (nearer horizon)", got)
	}
}

func TestCacheAffinityStickiness(t *testing.T) {
	clk := simclock.New()
	s := newMulti(clk, 4, &CacheAffinity{})
	const key = 7 // home replica: 7 % 4 == 3
	run(t, clk, func() {
		// The same conversation (one affinity key) submits from several
		// concurrent threads — the paper's forked-prefix pattern — and
		// again later when the cluster is otherwise idle.
		wg := clk.NewWaitGroup()
		for i := 0; i < 6; i++ {
			wg.Add(1)
			clk.Go("fork", func() {
				defer wg.Done()
				s.SubmitCall(Call{Model: target, Tokens: 8, Affinity: key})
			})
		}
		wg.Wait()
		clk.Sleep(100 * time.Millisecond)
		s.SubmitCall(Call{Model: target, Tokens: 1, Affinity: key})
	})
	st := s.Stats()
	for _, rs := range st.Replicas {
		want := int64(0)
		if rs.ID == key%4 {
			want = 7
		}
		if rs.Calls != want {
			t.Fatalf("replica %d calls = %d, want %d (affinity not sticky: %+v)",
				rs.ID, rs.Calls, want, st.Replicas)
		}
	}
}

func TestCacheAffinityFallback(t *testing.T) {
	// Calls without a key fall back to least-loaded: with replica 0 busy,
	// a keyless call must avoid it.
	clk := simclock.New()
	s := newMulti(clk, 2, &CacheAffinity{})
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1)
		clk.Go("busy", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 3000, Affinity: 2}) // 2 % 2 == 0
		})
		clk.Sleep(5 * time.Millisecond)
		wg.Add(1)
		clk.Go("keyless", func() {
			defer wg.Done()
			submit(s, target, 1)
		})
		wg.Wait()
	})
	st := s.Stats()
	if st.Replicas[1].Calls != 1 {
		t.Fatalf("keyless call did not fall back to idle replica: %+v", st.Replicas)
	}
}

func TestReplicaStatsAggregation(t *testing.T) {
	clk := simclock.New()
	s := newMulti(clk, 3, NewRoundRobin())
	const n = 9
	run(t, clk, func() {
		for i := 0; i < n; i++ {
			if err := submit(s, target, 10); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
		clk.Sleep(time.Second) // idle tail so utilization < 1
	})
	st := s.Stats()
	var calls, tokens, batches, steps int64
	var busy time.Duration
	for _, rs := range st.Replicas {
		calls += rs.Calls
		tokens += rs.Tokens
		batches += rs.Batches
		steps += rs.Steps
		busy += rs.GPUBusy
		if rs.Utilization <= 0 || rs.Utilization >= 1 {
			t.Fatalf("replica %d utilization = %v", rs.ID, rs.Utilization)
		}
		if rs.DelayMean < 0 {
			t.Fatalf("replica %d negative delay", rs.ID)
		}
	}
	if calls != st.Calls || calls != n {
		t.Fatalf("call rollup: replicas %d, aggregate %d, want %d", calls, st.Calls, n)
	}
	if tokens != st.Tokens || tokens != n*10 {
		t.Fatalf("token rollup: replicas %d, aggregate %d", tokens, st.Tokens)
	}
	if batches != st.Batches || steps != st.Steps || busy != st.GPUBusy {
		t.Fatalf("rollup mismatch: %+v", st)
	}
	// Aggregate utilization is the mean per-replica utilization.
	now := clk.Now()
	want := float64(busy) / float64(now) / 3
	if diff := st.Utilization - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("utilization = %v, want %v", st.Utilization, want)
	}
	// Each 10-token call is one advance: the lane's queue-delay histogram
	// holds every one, and the per-replica ones partition it.
	if got := s.LaneDelay(Normal).Count(); got != n {
		t.Fatalf("lane delay samples = %d", got)
	}
	var perReplica int64
	for _, r := range s.replicas {
		perReplica += r.delayHist.Count()
	}
	if perReplica != n {
		t.Fatalf("per-replica delay samples = %d", perReplica)
	}
}

// TestDispatcherTieBreaks pins the edge-case routing decisions as a
// table over dispatcher × view shapes: equal queues, a saturated
// affinity home, and an affinity key no replica has served yet.
func TestDispatcherTieBreaks(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	equal := []ReplicaView{
		{ID: 0, QueuedTokens: 100, InflightTokens: 50},
		{ID: 1, QueuedTokens: 100, InflightTokens: 50},
		{ID: 2, QueuedTokens: 100, InflightTokens: 50},
	}
	// Replica 1 (= 5 % 4) is drowning; the others are idle.
	saturatedHome := []ReplicaView{
		{ID: 0},
		{ID: 1, QueuedTokens: 50000, InflightTokens: 8000,
			BusyUntil: ms(900), Now: ms(10)},
		{ID: 2},
		{ID: 3},
	}
	idle4 := []ReplicaView{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	cases := []struct {
		name string
		d    Dispatcher
		c    Call
		view []ReplicaView
		want int
	}{
		{
			// Fully equal load: pending tokens tie, busy horizons tie —
			// the lowest replica ID wins, deterministically.
			name: "least-loaded equal queues picks lowest id",
			d:    LeastLoaded{},
			view: equal,
			want: 0,
		},
		{
			// Equal pending tokens split differently between queued and
			// in-flight still tie: the split must not matter.
			name: "least-loaded queued/inflight split ties",
			d:    LeastLoaded{},
			view: []ReplicaView{
				{ID: 0, QueuedTokens: 150, InflightTokens: 0},
				{ID: 1, QueuedTokens: 0, InflightTokens: 150},
			},
			want: 0,
		},
		{
			// Cache affinity is sticky even when the home replica is
			// saturated: losing the prefix KV costs more than queueing
			// (the fallback is reserved for keyless calls).
			name: "cache-affinity saturated home stays pinned",
			d:    &CacheAffinity{},
			c:    Call{Model: target, Tokens: 8, Affinity: 5},
			view: saturatedHome,
			want: 1,
		},
		{
			// A keyless call under the same saturated view must avoid
			// the drowning replica via the least-loaded fallback.
			name: "cache-affinity keyless avoids saturated replica",
			d:    &CacheAffinity{},
			c:    Call{Model: target, Tokens: 8},
			view: saturatedHome,
			want: 0,
		},
		{
			// A fork whose root hash was never dispatched before has no
			// history anywhere; its home is still a pure function of the
			// key, so later forks of the same conversation join it.
			name: "cache-affinity unseen root hash routes by key",
			d:    &CacheAffinity{},
			c:    Call{Model: target, Tokens: 8, Affinity: 0xdeadbeef},
			view: idle4,
			want: int(0xdeadbeef % 4),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.d.Pick(tc.c, tc.view); got != tc.want {
				t.Fatalf("pick = %d, want %d", got, tc.want)
			}
			// Decisions over a static view are stable across repeats —
			// no hidden state may perturb routing.
			if again := tc.d.Pick(tc.c, tc.view); again != tc.want {
				t.Fatalf("repeat pick = %d, want %d", again, tc.want)
			}
		})
	}
}

// TestCacheAffinityUnseenKeyEndToEnd dispatches a fork whose root hash
// no replica has ever served through a live scheduler: the call must
// land on its hash-determined home and execute exactly once.
func TestCacheAffinityUnseenKeyEndToEnd(t *testing.T) {
	clk := simclock.New()
	s := newMulti(clk, 4, &CacheAffinity{})
	const key = 0x9e3779b9 // never submitted before
	run(t, clk, func() {
		if err := s.SubmitCall(Call{Model: target, Tokens: 4, Affinity: key}); err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
	})
	st := s.Stats()
	for _, rs := range st.Replicas {
		want := int64(0)
		if rs.ID == key%4 {
			want = 1
		}
		if rs.Calls != want {
			t.Fatalf("replica %d calls = %d, want %d", rs.ID, rs.Calls, want)
		}
	}
}

// misroute always returns an out-of-range replica index.
type misroute struct{}

func (misroute) Name() string                 { return "misroute" }
func (misroute) Pick(Call, []ReplicaView) int { return 99 }

func TestDispatcherClamping(t *testing.T) {
	clk := simclock.New()
	s := newMulti(clk, 2, misroute{})
	run(t, clk, func() {
		if err := submit(s, target, 1); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	if s.Stats().Calls != 1 {
		t.Fatal("misrouted call lost")
	}
}

func TestNewDispatcherRegistry(t *testing.T) {
	for _, name := range DispatcherNames() {
		d, err := NewDispatcher(name)
		if err != nil {
			t.Fatalf("NewDispatcher(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Fatalf("NewDispatcher(%q).Name() = %q", name, d.Name())
		}
	}
	if d, err := NewDispatcher(""); err != nil || d.Name() != "round-robin" {
		t.Fatalf("default dispatcher: %v, %v", d, err)
	}
	if _, err := NewDispatcher("nope"); err == nil {
		t.Fatal("unknown dispatcher accepted")
	}
}

func TestSingleReplicaBackwardCompatible(t *testing.T) {
	// Replicas: 0 and nil dispatcher must behave as the original
	// single-GPU scheduler.
	clk := simclock.New()
	s := New(clk, Config{
		Models: map[string]model.CostModel{target: model.A100Llama13B()},
	})
	if s.Replicas() != 1 {
		t.Fatalf("replicas = %d", s.Replicas())
	}
	if s.Dispatcher() != "round-robin" {
		t.Fatalf("dispatcher = %q", s.Dispatcher())
	}
}
