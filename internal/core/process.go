package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Program is an LLM Inference Program: user logic the serving system
// executes. A real deployment would receive it as sandboxed code (WASM,
// seccomp — paper §6); here it is a Go closure, which keeps the trust
// model out of scope while preserving every scheduling, caching, and
// accounting interaction the paper studies.
type Program func(ctx *Ctx) error

// Message is an IPC datagram between processes.
type Message struct {
	From    int
	Payload string
}

// Process is one executing LIP.
type Process struct {
	k    *Kernel
	pid  int
	user string

	budget int64          // max pred tokens; 0 = unlimited
	prio   sched.Priority // scheduling lane for every pred the process issues

	mailbox *simclock.Queue[Message]
	wg      *simclock.WaitGroup
	done    *simclock.Event
	events  *eventHub

	mu         sync.Mutex
	out        strings.Builder
	err        error
	cancelled  bool
	finished   bool
	predTokens int64
	threadSeq  int
	startedAt  time.Duration
	endedAt    time.Duration
}

// SubmitOptions tune a process.
type SubmitOptions struct {
	// Budget caps the total tokens the process may push through Pred;
	// zero means unlimited.
	Budget int64
	// Priority is the scheduling lane every pred call of the process
	// carries into the batch scheduler (zero value sched.Normal). The
	// priority policy orders each GPU iteration by it; an interactive
	// process overtakes batch work at every iteration boundary.
	Priority sched.Priority
}

// Submit starts prog as a new process for user and returns immediately.
func (k *Kernel) Submit(user string, prog Program) *Process {
	return k.SubmitWith(user, prog, SubmitOptions{})
}

// SubmitWith starts prog with explicit options.
func (k *Kernel) SubmitWith(user string, prog Program, opts SubmitOptions) *Process {
	k.mu.Lock()
	k.nextPID++
	p := &Process{
		k:         k,
		pid:       k.nextPID,
		user:      user,
		budget:    opts.Budget,
		prio:      opts.Priority,
		mailbox:   simclock.NewQueue[Message](k.clk),
		wg:        k.clk.NewWaitGroup(),
		done:      k.clk.NewEvent(),
		events:    newEventHub(),
		startedAt: k.clk.Now(),
	}
	k.procs[p.pid] = p
	k.mu.Unlock()
	k.procsStarted.Inc()
	p.publish(ProcEvent{Kind: EventStatus, Status: StatusRunning})

	p.wg.Add(1)
	k.clk.Go("lip", func() {
		err := runGuarded(prog, &Ctx{p: p, tid: 0})
		p.wg.Done()
		// The process exits when the main thread has returned and every
		// spawned thread has been joined or finished.
		p.wg.Wait()
		p.finish(err)
	})
	return p
}

// runGuarded executes a thread body, converting panics into errors so a
// faulty LIP cannot take the kernel down.
func runGuarded(prog Program, ctx *Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: LIP panic: %v", r)
		}
	}()
	return prog(ctx)
}

func (p *Process) finish(err error) {
	k := p.k
	k.mu.Lock()
	delete(k.procs, p.pid)
	k.mu.Unlock()
	// Detach from the KV memory daemon: drop the notify closures that
	// retain this Process; leaked files stay tracked as orphaned eviction
	// candidates.
	k.kvd.ReleaseProcess(p.pid)
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.finished = true
	p.endedAt = k.clk.Now()
	started := p.startedAt
	p.mu.Unlock()
	k.tracer.Span(trace.Event{
		At: started, Dur: k.clk.Now() - started, PID: p.pid,
		Kind: trace.KindProcess, Detail: p.user,
	})
	final := ProcEvent{Kind: EventStatus, Status: p.Status(), Final: true}
	if perr := p.Err(); perr != nil {
		final.Err = perr.Error()
	}
	p.events.publishFinal(p.stamp(final))
	p.done.Fire()
}

// stamp fills an event's publish time and process identity.
func (p *Process) stamp(e ProcEvent) ProcEvent {
	e.At = p.k.clk.Now()
	e.PID = p.pid
	return e
}

// publish stamps and fans out a process event. It takes the clock and
// hub locks but never p.mu, so callers may hold p.mu to order events
// with state they are mutating.
func (p *Process) publish(e ProcEvent) {
	p.events.publish(p.stamp(e))
}

// Subscribe attaches an observer to the process event stream, replaying
// retained history with Seq >= from (0 replays everything retained). The
// caller must Close the subscription and must not consume it from a clock
// actor.
func (p *Process) Subscribe(from int64) *Subscription {
	return p.events.subscribe(from)
}

// Status reports the process lifecycle state: running or cancelling while
// live; done, failed, or cancelled once finished.
func (p *Process) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finished {
		if p.cancelled {
			return StatusCancelling
		}
		return StatusRunning
	}
	switch {
	case p.err == nil:
		return StatusDone
	case errors.Is(p.err, ErrCancelled):
		return StatusCancelled
	default:
		return StatusFailed
	}
}

// Err returns the process error once it has finished, and nil before.
func (p *Process) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finished {
		return nil
	}
	return p.err
}

// EndedAt reports the virtual time the process exited; ok is false while
// it is still live.
func (p *Process) EndedAt() (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.endedAt, p.finished
}

// PID returns the process ID.
func (p *Process) PID() int { return p.pid }

// Wait parks the calling actor until the process exits and returns its
// error, if any.
func (p *Process) Wait() error {
	if err := p.done.Wait(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Done reports whether the process has exited.
func (p *Process) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finished
}

// Cancel requests cooperative termination: every subsequent system call in
// the process fails with ErrCancelled.
func (p *Process) Cancel() {
	p.mu.Lock()
	already := p.cancelled || p.finished
	p.cancelled = true
	p.mu.Unlock()
	if !already {
		p.publish(ProcEvent{Kind: EventStatus, Status: StatusCancelling})
	}
}

// Output returns everything the process has emitted so far.
func (p *Process) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// PredTokens reports the tokens the process has pushed through Pred.
func (p *Process) PredTokens() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.predTokens
}

// Runtime reports the process's virtual runtime (so far, if still live).
func (p *Process) Runtime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return p.endedAt - p.startedAt
	}
	return p.k.clk.Now() - p.startedAt
}

func (p *Process) checkLive() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancelled {
		return ErrCancelled
	}
	return nil
}

// chargeTokens enforces the token budget.
func (p *Process) chargeTokens(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancelled {
		return ErrCancelled
	}
	if p.budget > 0 && p.predTokens+int64(n) > p.budget {
		return ErrBudget
	}
	p.predTokens += int64(n)
	return nil
}

// Thread is a LIP thread handle.
type Thread struct {
	done *simclock.Event
	mu   sync.Mutex
	err  error
}

// Join parks the caller until the thread finishes, returning its error.
func (t *Thread) Join() error {
	if err := t.done.Wait(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
