package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// This file is the one scenario runner behind every sweep: how a cell's
// kernel is built, how its clients are driven to quiescence, and how
// completions, failures and makespan are accounted. A sweep file keeps
// only what is specific to it — its Default*/Quick* config, the kernel
// fields it overrides, its per-client program, and the extra fields of
// its point struct.

// drive runs fn as the root actor of clk and blocks until the simulation
// quiesces, then shuts the clock down. It is the entry point every
// experiment uses.
func drive(clk *simclock.Clock, fn func()) {
	done := make(chan struct{})
	go func() {
		clk.Go("experiment", fn)
		clk.WaitQuiescent()
		close(done)
	}()
	<-done
	clk.Shutdown()
}

// fig3FS sizes a KV file system for an experiment.
func fig3FS(gpuBytes, bytesPerToken int64) kvfs.Config {
	fs := kvfs.DefaultConfig()
	fs.GPUBytes = gpuBytes
	fs.BytesPerToken = bytesPerToken
	return fs
}

// newKernel builds a kernel on clk from the defaults every sweep shares —
// core.DefaultConfig() with a 64 GiB KV pool (so capacity is not the
// variable under study unless edit makes it one) — after edit has changed
// what the cell varies.
func newKernel(clk *simclock.Clock, edit func(*core.Config)) *core.Kernel {
	cfg := core.DefaultConfig()
	cfg.FS = fig3FS(64<<30, model.A100Llama13B().KVBytesPerToken)
	if edit != nil {
		edit(&cfg)
	}
	return core.New(clk, cfg)
}

// newBaseline builds the named prompt-serving baseline (SystemVLLM or
// SystemTGI) over the same model as newKernel; its KV pool stays the
// engine default unless edit sizes it.
func newBaseline(clk *simclock.Clock, sys string, edit func(*baseline.Config)) baseline.Server {
	cfg := baseline.Config{Model: model.New(model.Llama13B())}
	if edit != nil {
		edit(&cfg)
	}
	if sys == SystemVLLM {
		return baseline.NewVLLM(clk, cfg)
	}
	return baseline.NewTGI(clk, cfg)
}

// openLoop drives n arrivals from the root actor of clk: it sleeps until
// at(i) (ascending virtual times), serves request i as its own client
// actor, and returns once every client has finished.
func openLoop(clk *simclock.Clock, n int, at func(i int) time.Duration, serve func(i int)) {
	drive(clk, func() {
		wg := clk.NewWaitGroup()
		var prev time.Duration
		for i := 0; i < n; i++ {
			clk.Sleep(at(i) - prev)
			prev = at(i)
			wg.Add(1)
			clk.Go("client", func() {
				defer wg.Done()
				serve(i)
			})
		}
		wg.Wait()
	})
}

// completion is the plain text-completion LIP: prefill prompt on a fresh
// file and generate up to maxTokens.
func completion(prompt string, maxTokens int) core.Program {
	return func(ctx *core.Ctx) error {
		f, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer f.Remove()
		_, err = lip.Complete(lip.NewSession(ctx, f), prompt, maxTokens)
		return err
	}
}

// tally is the completion accounting of a run: successes, failures split
// by cause, when the last outcome landed, and the first error seen.
type tally struct {
	mu        sync.Mutex
	completed int
	noSpace   int // failures that were kvfs.ErrNoSpace
	otherErrs int // every other failure
	last      time.Duration
	firstErr  error
}

func (t *tally) note(now time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if now > t.last {
		t.last = now
	}
	switch {
	case err == nil:
		t.completed++
	case errors.Is(err, kvfs.ErrNoSpace):
		t.noSpace++
	default:
		t.otherErrs++
	}
	if err != nil && t.firstErr == nil {
		t.firstErr = err
	}
}

// failed counts every failure regardless of cause.
func (t *tally) failed() int { return t.noSpace + t.otherErrs }

// cell is one sweep cell in flight: a virtual clock, the kernel under
// test, and the two tallies sweeps read their points from — procs counts
// joined client processes, reqs the per-request marks of the sweeps whose
// throughput is per request.
type cell struct {
	clk   *simclock.Clock
	k     *core.Kernel
	wg    *simclock.WaitGroup
	procs tally
	reqs  tally
}

func newCell(clk *simclock.Clock, edit func(*core.Config)) *cell {
	return &cell{clk: clk, k: newKernel(clk, edit), wg: clk.NewWaitGroup()}
}

// run drives fn as the cell's root actor, waits for everything fn
// submitted or spawned, and shuts the clock down.
func (c *cell) run(fn func()) {
	drive(c.clk, func() {
		fn()
		c.wg.Wait()
	})
}

// spawn runs fn as a clock actor the cell waits for: a client that
// submits its own processes, or a background task.
func (c *cell) spawn(name string, fn func()) {
	c.wg.Add(1)
	c.clk.Go(name, func() {
		defer c.wg.Done()
		fn()
	})
}

// submit starts prog as a process of user and joins it: its outcome
// lands in c.procs when it exits.
func (c *cell) submit(user string, opts core.SubmitOptions, prog core.Program) {
	c.wg.Add(1)
	p := c.k.SubmitWith(user, prog, opts)
	c.clk.Go("join", func() {
		defer c.wg.Done()
		err := p.Wait()
		c.procs.note(c.clk.Now(), err)
	})
}

// mark records one completed request at the current virtual time.
func (c *cell) mark() { c.reqs.note(c.clk.Now(), nil) }

// mustSucceed panics if any joined process failed: the sweeps that call
// it measure nothing meaningful over a partial run.
func (c *cell) mustSucceed(what string) {
	if err := c.procs.firstErr; err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", what, err))
	}
}

// population describes one class of closed-loop clients as data.
type population struct {
	// User names client i's process owner.
	User func(i int) string
	Opts core.SubmitOptions
	// Clients is the population size.
	Clients int
	// Spread staggers starts so clients do not phase-lock: client i
	// sleeps i×Spread/Clients first. Zero starts everyone at once.
	Spread time.Duration
	// Program is client i's body, run after its stagger.
	Program func(ctx *core.Ctx, i int) error
}

// numbered names client i by formatting its index into format.
func numbered(format string) func(i int) string {
	return func(i int) string { return fmt.Sprintf(format, i) }
}

// clients submits one process per member of the population.
func (c *cell) clients(p population) {
	for i := 0; i < p.Clients; i++ {
		c.submit(p.User(i), p.Opts, func(ctx *core.Ctx) error {
			if p.Spread > 0 {
				if err := ctx.Sleep(time.Duration(i) * p.Spread / time.Duration(p.Clients)); err != nil {
					return err
				}
			}
			return p.Program(ctx, i)
		})
	}
}

// clientClass sizes one class of the mixed interactive/batch load.
type clientClass struct{ Clients, Requests, Prefill, Decode int }

// mixedLoad submits the two populations the slo and specdec sweeps
// share. Interactive clients spread their starts over one think window
// and think between requests; batch clients start 5ms apart (as real
// batch arrivals would be de-phased) and run back to back. Every request
// is a promptRequest over a synthetic prompt of its class's shape. It
// returns the interactive requests' decode time per token (each decode
// run's time over its tokens), filled in as the requests finish.
func (c *cell) mixedLoad(interactive, batch clientClass, think time.Duration, base int) *metrics.Histogram {
	perToken := metrics.NewHistogram()
	request := func(ctx *core.Ctx, class clientClass, seed int) (time.Duration, error) {
		return promptRequest(ctx, synthTokens(class.Prefill, seed), class.Decode, seed+class.Prefill)
	}
	c.clients(population{
		User:    func(int) string { return "interactive" },
		Opts:    core.SubmitOptions{Priority: sched.Interactive},
		Clients: interactive.Clients,
		Spread:  think,
		Program: func(ctx *core.Ctx, i int) error {
			return closedLoop(ctx, interactive.Requests, think, func(r int) error {
				d, err := request(ctx, interactive, base+i*100000+r*1000)
				if err == nil && interactive.Decode > 0 {
					perToken.Add(d / time.Duration(interactive.Decode))
				}
				return err
			})
		},
	})
	c.clients(population{
		User:    func(int) string { return "batch" },
		Opts:    core.SubmitOptions{Priority: sched.Batch},
		Clients: batch.Clients,
		Spread:  time.Duration(batch.Clients) * 5 * time.Millisecond,
		Program: func(ctx *core.Ctx, i int) error {
			return closedLoop(ctx, batch.Requests, 0, func(r int) error {
				_, err := request(ctx, batch, base+5000000+i*200000+r*2000)
				return err
			})
		},
	})
	return perToken
}

// laneStats returns the named lane's scheduler statistics.
func laneStats(st sched.Stats, lane string) sched.LaneStats {
	for _, l := range st.Lanes {
		if l.Lane == lane {
			return l
		}
	}
	return sched.LaneStats{}
}

// closedLoop issues n requests back to back, thinking for think (when
// positive) after each one.
func closedLoop(ctx *core.Ctx, n int, think time.Duration, request func(r int) error) error {
	for r := 0; r < n; r++ {
		if err := request(r); err != nil {
			return err
		}
		if think > 0 {
			if err := ctx.Sleep(think); err != nil {
				return err
			}
		}
	}
	return nil
}

// synthTokens is the deterministic token stream seed, seed+1, … of
// length n; positions numbers n tokens from from.
func synthTokens(n, seed int) []token.ID {
	toks := make([]token.ID, n)
	for i := range toks {
		toks[i] = token.ID(seed + i)
	}
	return toks
}

func positions(n, from int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = from + i
	}
	return pos
}

// synthPred appends n synthetic tokens to f through the pred syscall, as
// one prefill.
func synthPred(ctx *core.Ctx, f *kvfs.File, n, seed int) error {
	if n <= 0 {
		return nil
	}
	_, err := ctx.Pred(f, synthTokens(n, seed), positions(n, f.Len()))
	return err
}

// synthDecode appends n synthetic tokens to f as one decode run, which
// the executor advances a token (or a verified draft window) per
// iteration, as it does a lip.Generate. Synthetic tokens are not the
// model's own draws, so a speculated run accepts the positions where the
// draft echoes the target and others only by chance. progress, when
// non-nil, hears the run's retired positions (core.DecodeRun.Progress).
func synthDecode(ctx *core.Ctx, f *kvfs.File, n, seed int, progress func(retired int)) error {
	if n <= 0 {
		return nil
	}
	_, err := ctx.PredDecode("", f, synthTokens(n, seed), positions(n, f.Len()), core.DecodeRun{Progress: progress})
	return err
}

// promptRequest runs one request on a fresh file: prompt as one prefill
// pred, then decode tokens seeded from seed as one decode run. It returns
// the decode run's virtual time, from the prefill's return to the run's.
func promptRequest(ctx *core.Ctx, prompt []token.ID, decode, seed int) (time.Duration, error) {
	f, err := ctx.KvAnon()
	if err != nil {
		return 0, err
	}
	defer f.Remove()
	if _, err := ctx.Pred(f, prompt, positions(len(prompt), 0)); err != nil {
		return 0, err
	}
	start := ctx.Clock().Now()
	err = synthDecode(ctx, f, decode, seed, nil)
	return ctx.Clock().Now() - start, err
}

// lanePolicy builds the named priority policy; a lanes policy takes the
// step quantum, per-iteration token budget and aging interval the slo
// and specdec sweeps configure.
func lanePolicy(name string, quantum, stepTokens int, ageAfter time.Duration) sched.PriorityPolicy {
	p, err := sched.NewPriorityPolicy(name)
	if err != nil {
		panic(err)
	}
	if lanes, ok := p.(*sched.Lanes); ok {
		lanes.SliceTokens = quantum
		lanes.MaxStepTokens = stepTokens
		lanes.AgeAfter = ageAfter
	}
	return p
}

// perSecond is n per second of makespan; zero over an empty run.
func perSecond[N int | int64](n N, makespan time.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(n) / makespan.Seconds()
}

// ratio is v over base, or 1 when either is missing (a sweep without its
// base cell, or a cell that measured nothing).
func ratio[N float64 | time.Duration](v, base N) float64 {
	if v <= 0 || base <= 0 {
		return 1
	}
	return float64(v) / float64(base)
}

// normalize fills each point's ratio to its base cell — the first point
// isBase accepts for it, or the zero point when the sweep has none.
func normalize[P any](pts []P, isBase func(p, q *P) bool, set func(p, base *P)) {
	for i := range pts {
		var base P
		for j := range pts {
			if isBase(&pts[i], &pts[j]) {
				base = pts[j]
				break
			}
		}
		set(&pts[i], &base)
	}
}

// utilSpread returns the least- and most-utilized replica's utilization.
func utilSpread(replicas []sched.ReplicaStats) (lo, hi float64) {
	for i, rs := range replicas {
		if i == 0 || rs.Utilization < lo {
			lo = rs.Utilization
		}
		if rs.Utilization > hi {
			hi = rs.Utilization
		}
	}
	return lo, hi
}
