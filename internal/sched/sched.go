// Package sched implements the lower level of Symphony's two-level
// scheduling scheme (paper §4.4): the batch inference scheduler.
//
// The upper level — the thread scheduler — is realized by the process and
// thread machinery in internal/core: LIP threads are simclock actors, and
// a thread that issues pred is moved to the "inference pool" simply by
// parking on its call's completion event.
//
// The inference scheduler aggregates concurrent pred calls into batched
// GPU steps. Because the simulated GPU (like a real one) charges a large
// fixed kernel overhead per step, batching multiplies throughput. A batch
// is whatever is queued when an iteration boundary comes: while the GPU
// is busy executing a step, arrivals accumulate naturally and join at the
// next boundary, at most one step later, and an arrival that finds the
// GPU idle starts at once. There is no idle batching window: §4.4's sketch
// holds the first arrival for company because it assumes a batch that
// late arrivals cannot join, and under iteration-level execution they can,
// so a hold only spends the one resource an idle GPU has to spare
// (docs/EXPERIMENTS.md, "Why there is no idle batching window").
//
// Execution is iteration-level (Orca-style continuous batching): each
// submitted call is a resumable unit that executes up to a step quantum
// of tokens per GPU iteration, new arrivals join the running batch at the
// next iteration boundary, and a pluggable PriorityPolicy (see
// priority.go) orders every iteration — strict interactive/normal/batch
// lanes with aging by default, or the FIFO run-to-completion baseline. A
// boundary is ordered retire → the woken threads run → drain → crash
// check → pack: the thread scheduler gets its turn before the batch
// scheduler's, so a thread whose call the step just retired resubmits in
// time for the very next iteration and a per-token pred loop decodes at
// one step per token (see replica.loop for the order and its limit). A
// low-priority call that is mid-flight can be preempted at an iteration
// boundary when higher-lane work fills the step budget; its Call.OnPreempt
// hook lets the kernel release the call's KV pin so preempted state is
// evictable under memory pressure.
//
// The scheduler drives Config.Replicas independent GPU executors
// ("replicas"), each with its own queue, iteration loop, busy clock, and
// queue-delay histogram. A pluggable Dispatcher (see dispatch.go) routes
// each submitted call to a replica: round-robin, least-loaded, or
// cache-affinity. With one replica (the default) behaviour is identical
// to the original single-GPU scheduler.
package sched

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simclock"
)

// call is one pred call queued or in flight on a replica. It is a
// resumable unit: remaining tracks the tokens the GPU has not yet
// executed, and the executor slices it across iterations.
type call struct {
	model     string
	tokens    int
	remaining int
	prio      Priority
	queuedAt  time.Duration
	onPreempt func(bool) time.Duration
	done      *simclock.Event

	// decode marks an autoregressive decode run (one token of progress
	// per iteration unless spec speculation accepts more); spec is the
	// executor-side speculative-decoding state, nil for plain calls.
	decode bool
	spec   *specState

	// started: the call has executed at least one slice (its queue delay
	// is recorded when it first steps). scheduled: it was packed into the
	// most recent iteration; a started, unfinished call that loses its
	// slot is preempted. lastRun is when the call last executed a slice
	// (its submission time before that): aging promotes calls by time
	// without progress.
	started   bool
	scheduled bool
	lastRun   time.Duration
}

// Policy is ignored: it once chose an idle batching window, and there is
// none (see the package comment). The name survives only because the frozen
// benchmark/kernel.go writes `Policy: sched.DefaultPoisson()` into
// core.Config; the next benchmark PR drops those three lines, then this
// type, DefaultPoisson and core.Config.Policy go.
type Policy struct{}

// DefaultPoisson returns the ignored Policy; see Policy for why it exists
// and when it goes.
func DefaultPoisson() Policy { return Policy{} }

// Config configures a Scheduler.
type Config struct {
	// Models maps model name to its cost model. Every SubmitCall must
	// name a registered model.
	Models map[string]model.CostModel
	// PriorityPolicy orders each GPU iteration and sets the step quantum;
	// nil means DefaultLanes (strict lanes with aging). See
	// NewPriorityPolicy for selection by name.
	PriorityPolicy PriorityPolicy
	// PrefillChunk, when > 0, bounds the prefill tokens one non-decode
	// call may execute per iteration, independently of the priority
	// policy's quantum (the tighter of the two wins). It is the
	// Sarathi-style chunked-prefill knob: under the fifo
	// run-to-completion policy — whose quantum is unbounded — it is the
	// only thing stopping a monster prompt from holding an entire
	// iteration hostage while decodes queue behind it. <= 0 disables.
	PrefillChunk int
	// Replicas is the number of independent GPU executors; values < 1
	// mean one (the paper's single-GPU setting).
	Replicas int
	// Dispatcher routes calls across replicas; nil means round-robin.
	Dispatcher Dispatcher
	// CrashCheck, when non-nil, is consulted by each replica at every
	// iteration boundary; returning true crash-restarts that executor: it
	// loses all in-flight progress, its admitted and queued calls are
	// requeued to surviving replicas (re-dispatched to itself when it is
	// the only one), and it resumes serving empty. The chaos harness
	// supplies this hook (see internal/chaos).
	CrashCheck func(replica int) bool
	// OnCrash, when non-nil, is invoked (from the crashing replica's
	// actor, outside scheduler locks) after a crash-restart has requeued
	// its calls; the kernel uses it to invalidate the replica's KV
	// residency and prefix-index entries.
	OnCrash func(replica int)
}

// ReplicaStats is a snapshot of one replica's counters.
type ReplicaStats struct {
	ID     int
	Calls  int64
	Tokens int64
	// ExecTokens is the sum of step slices the GPU actually executed;
	// when every submitted call has completed it equals Tokens — the
	// invariant preemption and resumption must preserve.
	ExecTokens  int64
	Batches     int64
	Steps       int64
	AvgBatch    float64
	AvgTokens   float64
	Preemptions int64
	// Crashes counts crash-restarts of this executor; Requeued is the
	// number of calls its crashes pushed back for re-dispatch; LostTokens
	// is the executed-but-unretired progress those crashes discarded
	// (re-executed after requeue, never re-billed).
	Crashes  int64
	Requeued int64
	// SpecRounds counts draft/verify rounds this executor ran;
	// SpecDrafted and SpecAccepted are the draft tokens proposed and
	// accepted across them (their ratio is the realized acceptance rate).
	SpecRounds   int64
	SpecDrafted  int64
	SpecAccepted int64
	LostTokens   int64
	GPUBusy      time.Duration
	Utilization  float64 // GPUBusy / elapsed virtual time
	DelayMean    time.Duration
	DelayP99     time.Duration
}

// LaneStats is one priority lane's aggregate view across replicas. Delay
// is queue delay in the queueing-theory sense: the call's total time in
// the scheduler minus what the GPU would have charged it running alone.
// For the short calls interactive SLOs protect it is the wait a client
// observes; for a long sliced call it is the time other lanes' work (and
// preemption) inserted into its execution.
type LaneStats struct {
	Lane        string
	Calls       int64
	Preemptions int64
	DelayMean   time.Duration
	DelayP50    time.Duration
	DelayP99    time.Duration
	DelayMax    time.Duration
}

// Stats is a snapshot of scheduler counters. The top-level fields
// aggregate across replicas (GPUBusy is summed; Utilization is the mean
// per-replica utilization, i.e. GPUBusy / (elapsed · replicas)). Batches
// and Steps both count GPU iterations — under iteration-level execution
// the cut-batch/forward-pass distinction has collapsed into one loop.
type Stats struct {
	Calls  int64
	Tokens int64
	// ExecutedTokens sums the slices executed across replicas; it equals
	// Tokens + LostTokens once all submitted calls have completed —
	// crash-discarded progress is re-executed, everything else exactly
	// once.
	ExecutedTokens int64
	Batches        int64
	Steps          int64
	AvgBatch       float64
	AvgTokens      float64
	GPUBusy        time.Duration
	Utilization    float64
	Dispatcher     string
	PriorityPolicy string
	// Preemptions counts iteration-boundary preemptions: a mid-flight
	// call descheduled because higher-lane work filled the step budget.
	Preemptions int64
	// Crashes, Requeued, and LostTokens aggregate the per-replica
	// crash-restart counters.
	Crashes    int64
	Requeued   int64
	LostTokens int64
	// SpecRounds, SpecDrafted, and SpecAccepted aggregate the
	// speculative-decoding counters across replicas.
	SpecRounds   int64
	SpecDrafted  int64
	SpecAccepted int64
	// AdmitDeferred is always zero: no call is deferred ahead of its KV
	// allocation (core.Ctx.pred says why). The frozen benchmark/report.go
	// reads the field; the next benchmark PR drops it.
	AdmitDeferred int64
	// AdmitWait is always zero, for the same reason; the next benchmark
	// PR drops it with AdmitDeferred.
	AdmitWait time.Duration
	Lanes     []LaneStats
	Replicas  []ReplicaStats
}

// Scheduler is the batch inference scheduler plus the simulated GPU
// executors: one actor per replica that runs the iteration loop and
// charges virtual time per step, fed by a dispatcher.
type Scheduler struct {
	clk          *simclock.Clock
	models       map[string]model.CostModel
	prio         PriorityPolicy
	prefillChunk int
	dispatcher   Dispatcher
	replicas     []*replica
	delayHist    *metrics.Histogram // aggregate queue delay across replicas
	laneDelay    [NumLanes]*metrics.Histogram

	crashCheck func(int) bool
	onCrash    func(int)

	mu           sync.Mutex
	calls        int64
	tokens       int64
	laneCalls    [NumLanes]int64
	lanePreempts [NumLanes]int64
}

// replica is one simulated GPU executor with its own iteration loop.
type replica struct {
	id    int
	s     *Scheduler
	queue *simclock.Queue[*call]

	// active is the set of admitted, unfinished calls the iteration loop
	// schedules from. It is touched only by the replica actor.
	active []*call

	mu           sync.Mutex
	queuedTokens int           // tokens of calls waiting in queue
	inflight     int           // remaining tokens of admitted calls
	busyUntil    time.Duration // end of the current GPU step, 0 when idle
	// st holds the counters Stats reports, bumped in place under mu; the
	// ID, averages, utilization and delay quantiles are filled in at
	// snapshot.
	st        ReplicaStats
	batchW    metrics.Welford
	tokensW   metrics.Welford
	delayHist *metrics.Histogram
}

// New starts a scheduler and its replica actors on clk.
func New(clk *simclock.Clock, cfg Config) *Scheduler {
	if cfg.PriorityPolicy == nil {
		cfg.PriorityPolicy = DefaultLanes()
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Dispatcher == nil {
		cfg.Dispatcher = NewRoundRobin()
	}
	if cfg.PrefillChunk < 0 {
		cfg.PrefillChunk = 0
	}
	s := &Scheduler{
		clk:          clk,
		models:       cfg.Models,
		prio:         cfg.PriorityPolicy,
		prefillChunk: cfg.PrefillChunk,
		dispatcher:   cfg.Dispatcher,
		delayHist:    metrics.NewHistogram(),
		crashCheck:   cfg.CrashCheck,
		onCrash:      cfg.OnCrash,
	}
	for i := range s.laneDelay {
		s.laneDelay[i] = metrics.NewHistogram()
	}
	for i := 0; i < cfg.Replicas; i++ {
		r := &replica{
			id:        i,
			s:         s,
			queue:     simclock.NewQueue[*call](clk),
			delayHist: metrics.NewHistogram(),
		}
		s.replicas = append(s.replicas, r)
		clk.Go(fmt.Sprintf("inference-scheduler-%d", i), r.loop)
	}
	return s
}

// Replicas reports the number of GPU executors.
func (s *Scheduler) Replicas() int { return len(s.replicas) }

// Dispatcher reports the active dispatch policy's name.
func (s *Scheduler) Dispatcher() string { return s.dispatcher.Name() }

// PriorityPolicy reports the active priority policy's name.
func (s *Scheduler) PriorityPolicy() string { return s.prio.Name() }

// PrefillChunk reports the per-iteration prefill-slice bound; 0 when
// chunked prefill is disabled.
func (s *Scheduler) PrefillChunk() int { return s.prefillChunk }

// QueueDelay exposes the aggregate histogram of time calls spent queued
// before their first token executed, across all replicas and lanes.
func (s *Scheduler) QueueDelay() *metrics.Histogram { return s.delayHist }

// LaneDelay exposes the aggregate queue-delay histogram of one priority
// lane across all replicas.
func (s *Scheduler) LaneDelay(p Priority) *metrics.Histogram {
	return s.laneDelay[p.laneIndex()]
}

// ReplicaQueueDelay exposes replica i's queue-delay histogram.
func (s *Scheduler) ReplicaQueueDelay(i int) *metrics.Histogram {
	return s.replicas[i].delayHist
}

// Stats returns a snapshot of counters, aggregate, per lane, and per
// replica.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Calls:          s.calls,
		Tokens:         s.tokens,
		Dispatcher:     s.dispatcher.Name(),
		PriorityPolicy: s.prio.Name(),
	}
	laneCalls := s.laneCalls
	lanePre := s.lanePreempts
	s.mu.Unlock()

	for _, p := range Priorities {
		h := s.laneDelay[p.laneIndex()]
		st.Lanes = append(st.Lanes, LaneStats{
			Lane:        p.String(),
			Calls:       laneCalls[p.laneIndex()],
			Preemptions: lanePre[p.laneIndex()],
			DelayMean:   h.Mean(),
			DelayP50:    h.Quantile(0.50),
			DelayP99:    h.Quantile(0.99),
			DelayMax:    h.Max(),
		})
		st.Preemptions += lanePre[p.laneIndex()]
	}

	var batchSum, batchN, tokSum float64
	for _, r := range s.replicas {
		r.mu.Lock()
		// Read the clock while holding r.mu: busy is frozen, so it cannot
		// run ahead of now and utilization stays <= 1.
		rNow := s.clk.Now()
		rs := r.st
		rs.ID, rs.AvgBatch, rs.AvgTokens = r.id, r.batchW.Mean(), r.tokensW.Mean()
		batchSum += r.batchW.Sum()
		batchN += float64(r.batchW.N())
		tokSum += r.tokensW.Sum()
		r.mu.Unlock()
		if rNow > 0 {
			rs.Utilization = float64(rs.GPUBusy) / float64(rNow)
		}
		rs.DelayMean = r.delayHist.Mean()
		rs.DelayP99 = r.delayHist.Quantile(0.99)
		st.ExecutedTokens += rs.ExecTokens
		st.Batches += rs.Batches
		st.Steps += rs.Steps
		st.Crashes += rs.Crashes
		st.Requeued += rs.Requeued
		st.SpecRounds += rs.SpecRounds
		st.SpecDrafted += rs.SpecDrafted
		st.SpecAccepted += rs.SpecAccepted
		st.LostTokens += rs.LostTokens
		st.GPUBusy += rs.GPUBusy
		st.Replicas = append(st.Replicas, rs)
	}
	if batchN > 0 {
		st.AvgBatch = batchSum / batchN
		st.AvgTokens = tokSum / batchN
	}
	// This read is no earlier than any per-replica read above, so each
	// summed busy term is bounded by it and the mean stays <= 1.
	if now := s.clk.Now(); now > 0 {
		st.Utilization = float64(st.GPUBusy) / float64(now) / float64(len(s.replicas))
	}
	return st
}

// SubmitCall enqueues one pred call and parks the calling actor until
// every token of the call has been executed by GPU iterations. This is
// the transition the paper describes as moving the thread into the
// "inference pool", and the single entry point into the executor: all
// dispatch metadata — model, token count, priority lane, affinity key,
// routing pin, preemption hook — travels on the Call.
func (s *Scheduler) SubmitCall(meta Call) error {
	if _, ok := s.models[meta.Model]; !ok {
		return fmt.Errorf("sched: unknown model %q", meta.Model)
	}
	if meta.Tokens <= 0 {
		return fmt.Errorf("sched: nonpositive token count %d", meta.Tokens)
	}
	var spec *specState
	if meta.Spec != nil {
		var err error
		if spec, err = s.newSpecState(meta); err != nil {
			return err
		}
	}
	prio := meta.Priority.clamp()
	now := s.clk.Now()
	s.mu.Lock()
	s.calls++
	s.tokens += int64(meta.Tokens)
	s.laneCalls[prio.laneIndex()]++
	s.mu.Unlock()

	r := s.route(meta, now)
	r.mu.Lock()
	r.st.Calls++
	r.st.Tokens += int64(meta.Tokens)
	r.queuedTokens += meta.Tokens
	r.mu.Unlock()

	c := &call{
		model:     meta.Model,
		tokens:    meta.Tokens,
		remaining: meta.Tokens,
		prio:      prio,
		queuedAt:  now,
		lastRun:   now,
		onPreempt: meta.OnPreempt,
		done:      s.clk.NewEvent(),
		decode:    meta.Decode,
		spec:      spec,
	}
	r.queue.Put(c)
	return c.done.Wait()
}

// Views snapshots every replica's load at the current virtual time, in
// replica-ID order — the same view slice dispatchers Pick from. The
// kernel's migration engine reads it to judge home-replica overload.
func (s *Scheduler) Views() []ReplicaView {
	return s.views(s.clk.Now())
}

func (s *Scheduler) views(now time.Duration) []ReplicaView {
	views := make([]ReplicaView, len(s.replicas))
	for i, r := range s.replicas {
		r.mu.Lock()
		views[i] = ReplicaView{
			ID:             i,
			Queued:         r.queue.Len(),
			QueuedTokens:   r.queuedTokens,
			InflightTokens: r.inflight,
			BusyUntil:      r.busyUntil,
			Now:            now,
		}
		r.mu.Unlock()
	}
	return views
}

// route picks the call's replica: an explicitly routed call goes where
// its router pinned it, everything else is the dispatcher's choice.
// Out-of-range answers are clamped.
func (s *Scheduler) route(meta Call, now time.Duration) *replica {
	if len(s.replicas) == 1 {
		return s.replicas[0]
	}
	idx := meta.Target
	if !meta.Routed {
		idx = s.dispatcher.Pick(meta, s.views(now))
	}
	if idx < 0 || idx >= len(s.replicas) {
		idx = ((idx % len(s.replicas)) + len(s.replicas)) % len(s.replicas)
	}
	return s.replicas[idx]
}

// admit moves a queued call into the active set.
func (r *replica) admit(c *call) {
	r.active = append(r.active, c)
	r.mu.Lock()
	r.queuedTokens -= c.tokens
	r.inflight += c.remaining
	r.mu.Unlock()
}

// loop is the replica actor: admit arrivals, run one iteration, repeat.
// While calls are in flight the loop never waits for work — new arrivals
// join the active set at every iteration boundary (continuous batching).
// When the active set drains, the actor parks on its queue and the next
// arrival crosses the same boundary as any other: it starts at once.
//
// A boundary is ordered: retire → the woken threads run → drain → crash
// check → pack. iterate ends by firing the finished calls' events, which
// only schedules their threads; the zero-length sleep ahead of Drain
// yields the current virtual instant to them, so each runs up to its next
// clock block — in a per-token decode loop, its next SubmitCall — and is
// admitted into the very next iteration. These are §4.4's two levels
// taking turns: the thread scheduler must get its turn before the batch
// scheduler cuts the batch, or every one-token pred beside a
// multi-iteration call (a sliced prefill, a decode run) misses the
// iteration it should have joined and a decode loop advances every other
// step. The yield is one turn, not a fixpoint: a thread that blocks on the
// clock between its wake and its next SubmitCall (an ensureResident bill,
// even a zero-latency tool) is still parked when the batch is cut and
// rejoins one boundary later.
func (r *replica) loop() {
	for {
		if len(r.active) == 0 {
			first, err := r.queue.Get()
			if err != nil {
				return
			}
			r.admit(first)
		}
		if err := r.s.clk.Sleep(0); err != nil {
			return
		}
		for _, c := range r.queue.Drain() {
			r.admit(c)
		}
		if r.s.crashCheck != nil && r.s.crashCheck(r.id) {
			r.crash()
			continue
		}
		if err := r.iterate(); err != nil {
			return
		}
	}
}

// crash crash-restarts this executor at an iteration boundary: every
// admitted call loses its executed-but-unretired progress (counted as
// LostTokens and re-executed later — billing happened at submission, so
// nothing is charged twice), KV pins taken for scheduled calls are
// released through their preemption hooks, and all admitted and queued
// calls are requeued round-robin across the surviving replicas (to this
// replica itself when it is the only one). Each call's completion event
// still fires exactly once, when the re-dispatched work finishes — the
// submitting thread never observes the crash, so no job is lost or
// duplicated.
func (r *replica) crash() {
	s := r.s
	victims := make([]*call, len(r.active))
	copy(victims, r.active)
	r.active = r.active[:0]
	queued := r.queue.Drain()

	var lost int64
	r.mu.Lock()
	r.st.Crashes++
	r.st.Requeued += int64(len(victims) + len(queued))
	for _, c := range victims {
		lost += int64(c.tokens - c.remaining)
		r.inflight -= c.remaining
	}
	for _, c := range queued {
		r.queuedTokens -= c.tokens
	}
	r.st.LostTokens += lost
	r.mu.Unlock()

	// Release KV pins before the kernel invalidates residency. Only calls
	// scheduled in the last iteration still hold a pin — already-preempted
	// calls released theirs at preemption time, and un-started calls never
	// took one. The resume half of the hook fires when the call is next
	// packed, exactly as after an ordinary preemption.
	for _, c := range victims {
		if c.scheduled && c.onPreempt != nil {
			c.onPreempt(true)
		}
		c.scheduled = false
		c.remaining = c.tokens
	}
	if s.onCrash != nil {
		s.onCrash(r.id)
	}

	all := append(victims, queued...)
	n := len(s.replicas)
	for i, c := range all {
		t := r
		if n > 1 {
			t = s.replicas[(r.id+1+i%(n-1))%n]
		}
		t.mu.Lock()
		t.queuedTokens += c.tokens
		t.mu.Unlock()
		t.queue.Put(c)
	}
}

// iterate runs one GPU iteration: rank the active set by effective lane,
// pack quantum-sized slices into one forward pass (a pass runs one
// model), preempt mid-flight calls that lost their slot, charge the step
// time, and retire finished calls.
func (r *replica) iterate() error {
	s := r.s
	now := s.clk.Now()

	// Rank by effective lane (aging promotes calls stalled without
	// progress), FIFO within a lane. Effective lanes are fixed for the
	// whole iteration, so compute them once, not per comparison. The sort
	// is stable and active is kept in arrival order, so equal ranks keep
	// their submission order.
	ranked := make([]*call, len(r.active))
	copy(ranked, r.active)
	lanes := make(map[*call]Priority, len(ranked))
	for _, c := range ranked {
		lanes[c] = s.prio.Effective(c.prio, now-c.lastRun)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if lanes[ranked[i]] != lanes[ranked[j]] {
			return lanes[ranked[i]] < lanes[ranked[j]]
		}
		return ranked[i].queuedAt < ranked[j].queuedAt
	})

	// Pack the step in rank order. One forward pass runs one model: the
	// top-ranked call picks it, peers of other models wait their turn.
	// Packing is strict — when a slice no longer fits the budget the step
	// is cut, so a lower lane can never leapfrog a higher one by being
	// smaller.
	//
	// Each packed call contributes two token counts that the plain
	// prefill path keeps equal but speculation splits: compute is the new
	// positions the forward pass processes (what the step costs and what
	// fills the budget), progress is the positions that retire (what
	// ExecutedTokens and remaining move by). A prefill slice computes and
	// retires the same tokens; a plain decode call computes and retires
	// exactly one; a spec round computes its draft window but retires the
	// accepted run plus the verify pass's correction token — progress can
	// exceed compute, which is the whole point.
	stepModel := ranked[0].model
	cost := s.models[stepModel]
	budget := cost.MaxBatchTokens
	if sb := s.prio.StepTokens(); sb > 0 && sb < budget {
		budget = sb
	}
	quantum := s.prio.Quantum()
	var selected []*call
	var progress, compute []int
	var specDraft []int // drafted tokens this round, 0 = no spec round
	var stepCalls []model.BatchCall
	stepCompute, stepProgress := 0, 0
	for _, c := range ranked {
		if c.model != stepModel {
			continue
		}
		var prog, comp, drafted int
		switch {
		case !c.decode:
			// Prefill slice: the tighter of the policy quantum and the
			// chunked-prefill bound.
			slice := c.remaining
			if quantum > 0 && slice > quantum {
				slice = quantum
			}
			if s.prefillChunk > 0 && slice > s.prefillChunk {
				slice = s.prefillChunk
			}
			prog, comp = slice, slice
		case c.spec != nil && c.remaining > 1:
			// Draft/verify round: the draft proposes up to window tokens
			// (never past the run's final position — that one always
			// comes from a verify pass), the target computes them all,
			// and the leading accepted run plus one correction/bonus
			// token retires.
			pos := c.tokens - c.remaining
			effW := c.spec.window
			if effW > c.remaining-1 {
				effW = c.remaining - 1
			}
			acc := 0
			for acc < effW && c.spec.accept[pos+acc] {
				acc++
			}
			prog, comp, drafted = acc+1, effW, effW
		default:
			// Plain autoregressive decode: one token per iteration.
			prog, comp = 1, 1
		}
		// An oversized slice still runs when it is the step's first call;
		// otherwise the budget cuts the step here.
		if len(selected) > 0 && stepCompute+comp > budget {
			break
		}
		selected = append(selected, c)
		progress = append(progress, prog)
		compute = append(compute, comp)
		specDraft = append(specDraft, drafted)
		stepCalls = append(stepCalls, model.BatchCall{NewTokens: comp})
		stepCompute += comp
		stepProgress += prog
		if stepCompute >= budget {
			break
		}
	}

	// Draft passes are serialized ahead of the target step: every spec
	// call's draft round r proposes its r-th token in one batched draft
	// forward pass, so round r's pass carries every spec call whose
	// window reaches r. Draft models are visited in first-packed order —
	// no map iteration, identical every run.
	var draftCost time.Duration
	var draftOrder []string
	draftRounds := make(map[string][]int)
	for i, c := range selected {
		if specDraft[i] == 0 {
			continue
		}
		name := c.spec.draft
		if _, ok := draftRounds[name]; !ok {
			draftOrder = append(draftOrder, name)
		}
		draftRounds[name] = append(draftRounds[name], specDraft[i])
	}
	for _, name := range draftOrder {
		dc := s.models[name]
		counts := draftRounds[name]
		maxR := 0
		for _, n := range counts {
			if n > maxR {
				maxR = n
			}
		}
		for round := 1; round <= maxR; round++ {
			n := 0
			for _, cnt := range counts {
				if cnt >= round {
					n++
				}
			}
			draftCost += dc.KernelOverhead + time.Duration(n)*(dc.PerSequence+dc.PerToken)
		}
	}

	// Iteration-boundary preemption: a call that was stepping and is
	// still unfinished but not packed this iteration loses the GPU. Its
	// OnPreempt hook runs now (the kernel unpins the call's KV file so
	// preempted state is evictable); the matching resume hook runs when
	// the call is next packed, and any cost it reports (e.g. restoring
	// KV the daemon offloaded meanwhile) is charged to that step.
	inStep := make(map[*call]bool, len(selected))
	for _, c := range selected {
		inStep[c] = true
	}
	for _, c := range r.active {
		if inStep[c] || !c.scheduled {
			continue
		}
		c.scheduled = false
		r.mu.Lock()
		r.st.Preemptions++
		r.mu.Unlock()
		s.mu.Lock()
		s.lanePreempts[c.prio.laneIndex()]++
		s.mu.Unlock()
		if c.onPreempt != nil {
			c.onPreempt(true)
		}
	}
	var resumeCost time.Duration
	for _, c := range selected {
		switch {
		case !c.started:
			c.started = true
			d := now - c.queuedAt
			r.delayHist.Add(d)
			s.delayHist.Add(d)
		case !c.scheduled:
			if c.onPreempt != nil {
				resumeCost += c.onPreempt(false)
			}
		}
		c.scheduled = true
	}

	d := cost.StepTime(stepCalls) + draftCost + resumeCost
	r.mu.Lock()
	r.busyUntil = now + d
	r.mu.Unlock()
	err := s.clk.Sleep(d)
	r.mu.Lock()
	if err == nil {
		r.st.GPUBusy += d
		r.st.Batches++
		r.st.Steps++
		r.st.ExecTokens += int64(stepProgress)
		r.batchW.Add(float64(len(selected)))
		r.tokensW.Add(float64(stepCompute))
		r.inflight -= stepProgress
		for i := range selected {
			if specDraft[i] > 0 {
				r.st.SpecRounds++
				r.st.SpecDrafted += int64(specDraft[i])
				r.st.SpecAccepted += int64(progress[i] - 1)
			}
		}
	}
	r.busyUntil = 0
	r.mu.Unlock()
	if err != nil {
		return err
	}

	// Retire finished calls and compact the active set in place,
	// preserving arrival order.
	live := r.active[:0]
	finished := make([]*call, 0, len(selected))
	for i, c := range selected {
		c.remaining -= progress[i]
	}
	for _, c := range r.active {
		if c.remaining <= 0 {
			finished = append(finished, c)
			continue
		}
		live = append(live, c)
	}
	r.active = live
	end := s.clk.Now()
	for _, c := range selected {
		// Progress is stamped at step END: a call's own execution time is
		// not "waiting", so even when one iteration outlasts AgeAfter the
		// calls that just stepped do not age past fresh higher-lane work.
		c.lastRun = end
	}
	for _, c := range finished {
		// Lane delay is the call's queueing delay: total time in the
		// scheduler minus the step time it would have cost running alone.
		// Alone, a prefill is one pass; a decode run is one sequential
		// pass per token (without speculation — spec's win shows up as
		// negative-clamped delay rather than inflating the baseline).
		m := s.models[c.model]
		solo := m.StepTime([]model.BatchCall{{NewTokens: c.tokens}})
		if c.decode {
			solo = time.Duration(c.tokens) * m.StepTime([]model.BatchCall{{NewTokens: 1}})
		}
		d := end - c.queuedAt - solo
		if d < 0 {
			d = 0
		}
		s.laneDelay[c.prio.laneIndex()].Add(d)
		c.done.Fire()
	}
	return nil
}
