// Package simclock implements a discrete-event virtual clock that a set of
// cooperating goroutines ("actors") share.
//
// Symphony is a serving system whose interesting behaviour is temporal:
// batching, queueing delay, network round trips, GPU kernel time.
// Running those against the wall clock would make experiments slow and
// non-deterministic, so every timed operation in this repository goes
// through a Clock instead. Actors are ordinary goroutines registered with
// Go; whenever every actor is parked (sleeping, or waiting on an Event or
// Queue), the clock jumps to the earliest pending timer. Simulated days
// complete in milliseconds and every run is reproducible.
//
// Rules for actors:
//
//   - An actor may block only through clock primitives (Sleep, Event.Wait,
//     Queue.Get, Signal.Wait, WaitGroup.Wait). Blocking on a raw channel
//     hides the actor from the scheduler and stalls virtual time.
//   - Compute performed between clock calls is modelled as instantaneous.
//     Code that wants to charge for CPU time must Sleep explicitly.
//
// A Signal promises:
//
//   - Broadcast wakes the current waiters in wait order; it latches nothing.
//   - Wait returns "not signalled" once every other actor is parked and no
//     timer is due; its own park is not something to run. Such idle
//     waiters, on any signal, are answered one per quiescence in wait order.
//   - Shutdown answers a waiter with ErrShutdown.
//   - WaitQuiescent returns only after every idle waiter has been answered.
//
// A Clock created with NewRealtime additionally paces virtual time against
// the wall clock, which makes interactive demos watchable while reusing the
// exact same machinery. Pacing delays advances only: an actor woken from
// any goroutine runs without waiting out the gap to the next timer.
package simclock

import (
	"container/heap"
	"errors"
	"slices"
	"sync"
	"time"
)

// ErrShutdown is returned from blocking operations when the clock has been
// shut down. Actors should treat it as a request to return promptly.
var ErrShutdown = errors.New("simclock: clock shut down")

// Clock is a discrete-event simulation clock. The zero value is not usable;
// construct with New or NewRealtime.
type Clock struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on quiescence and shutdown

	now  time.Duration
	busy int  // actors currently runnable
	down bool // Shutdown called

	timers timerHeap
	parked map[chan struct{}]bool // parked wake channels
	idle   []sigWaiter            // Signal waiters, in wait order

	// realtime pacing: virtual time advances no faster than wall time
	// divided by speedup. speedup <= 0 disables pacing.
	speedup float64

	nextTimerID uint64
	downCh      chan struct{} // closed by Shutdown; interrupts pacing
}

// New returns a pure virtual-time clock starting at time zero.
func New() *Clock {
	c := &Clock{
		parked: make(map[chan struct{}]bool),
		downCh: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// NewRealtime returns a clock that advances virtual time at most speedup
// times faster than the wall clock (speedup 1 means real time). All other
// semantics match New.
func NewRealtime(speedup float64) *Clock {
	c := New()
	if speedup <= 0 {
		speedup = 1
	}
	c.speedup = speedup
	return c
}

// Now reports the current virtual time as an offset from the start of the
// simulation.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Go starts fn as a new actor. It may be called from inside or outside an
// actor; the new actor is accounted runnable before Go returns, so the
// clock cannot advance past the present before fn begins. The name labels
// the actor at its call site; the clock does not keep it.
//
// fn itself starts when the actor's zero-delay spawn timer fires, which
// serializes startup in Go-call order: the child runs after the spawning
// actor parks, never concurrently with it. Together with the deferred
// wakes in Event.Fire and Queue.Put this keeps at most one actor running
// at a time, so identically-seeded simulations interleave — and therefore
// decide — identically, regardless of OS goroutine scheduling.
func (c *Clock) Go(name string, fn func()) {
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return
	}
	c.busy++
	ch := make(chan struct{})
	c.nextTimerID++
	heap.Push(&c.timers, timerEntry{at: c.now, seq: c.nextTimerID, ch: ch})
	c.parkLocked(ch)
	c.mu.Unlock()

	go func() {
		<-ch
		defer func() {
			c.mu.Lock()
			c.busy--
			c.maybeAdvanceLocked(nil)
			c.mu.Unlock()
		}()
		fn()
	}()
}

// Sleep parks the calling actor for d of virtual time. A non-positive d
// yields without advancing time. Sleep returns ErrShutdown if the clock is
// shut down before or during the sleep.
func (c *Clock) Sleep(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return ErrShutdown
	}
	ch := make(chan struct{})
	c.nextTimerID++
	heap.Push(&c.timers, timerEntry{at: c.now + d, seq: c.nextTimerID, ch: ch})
	c.parkLocked(ch)
	c.mu.Unlock()
	<-ch
	c.mu.Lock()
	down := c.down
	c.mu.Unlock()
	if down {
		return ErrShutdown
	}
	return nil
}

// WaitQuiescent blocks until every actor is parked with no pending timers
// (i.e. virtual time can no longer advance on its own), or until Shutdown.
// It must be called from outside any actor. The typical benchmark shape is:
// spawn a workload-generating actor, WaitQuiescent, read metrics, Shutdown.
func (c *Clock) WaitQuiescent() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.down && !(c.busy == 0 && c.timers.Len() == 0 && len(c.idle) == 0) {
		c.cond.Wait()
	}
}

// Shutdown wakes every parked actor with ErrShutdown and makes all future
// blocking operations fail fast. It is idempotent.
func (c *Clock) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	c.down = true
	close(c.downCh)
	chans := make([]chan struct{}, 0, len(c.parked))
	for ch := range c.parked {
		//lint:allow maporder shutdown wake order is immaterial; every parked actor fails fast with ErrShutdown
		chans = append(chans, ch)
	}
	// wakeLocked keeps the busy count consistent with the actor-exit path.
	for _, ch := range chans {
		c.wakeLocked(ch)
	}
	c.timers = nil
	c.cond.Broadcast()
}

// Down reports whether Shutdown has been called.
func (c *Clock) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// parkLocked registers ch as a parked actor wake channel and gives up the
// caller's runnable slot. The caller must hold c.mu, and after unlocking
// must receive from ch. Whoever wakes the channel (timer advance, Event
// fire, Queue put, or Shutdown) restores the runnable slot before closing.
func (c *Clock) parkLocked(ch chan struct{}) {
	c.parked[ch] = true
	c.busy--
	if c.busy < 0 {
		panic("simclock: park from non-actor goroutine (busy underflow)")
	}
	c.maybeAdvanceLocked(ch)
}

// wakeSoonLocked schedules a zero-delay wake for the parked actor behind
// ch. Routing wakes through the timer heap instead of waking directly is
// what makes the simulation deterministic: actors woken at the same
// virtual instant (an event firing to many waiters, a batch completing)
// run one at a time in wake order — via maybeAdvanceLocked's
// one-timer-per-advance policy — rather than racing on the OS scheduler.
// The caller must hold c.mu.
func (c *Clock) wakeSoonLocked(ch chan struct{}) {
	c.nextTimerID++
	heap.Push(&c.timers, timerEntry{at: c.now, seq: c.nextTimerID, ch: ch})
	// If the waker is not an actor (an HTTP goroutine, a test) every actor
	// may already be parked, so the wake must advance the clock itself.
	c.maybeAdvanceLocked(nil)
}

// wakeLocked transfers a runnable slot to the parked actor behind ch and
// wakes it, reporting whether the channel was still parked. Stale wakes
// (an actor already woken through its other registration, e.g. an event
// with a timeout) are no-ops. The caller must hold c.mu.
func (c *Clock) wakeLocked(ch chan struct{}) bool {
	if _, ok := c.parked[ch]; !ok {
		return false // already woken or shut down
	}
	delete(c.parked, ch)
	c.busy++
	close(ch)
	return true
}

// maybeAdvanceLocked advances virtual time to the earliest timer whenever no
// actor is runnable. Exactly one timer is woken per advance, so actors whose
// timers share a deadline run in registration order rather than racing.
// With no timer left it answers the oldest Signal waiter, and with none of
// those either it broadcasts quiescence. own is the wake channel of the
// actor parking on the calling goroutine, nil for any other caller. Caller
// must hold c.mu.
func (c *Clock) maybeAdvanceLocked(own chan struct{}) {
	for !c.down && c.busy == 0 && c.timers.Len() > 0 {
		next := c.timers[0].at
		if c.speedup > 0 && next > c.now {
			// Pace against the wall clock. Nothing can become runnable
			// while busy==0 except via an external (non-actor) wake, so
			// re-check after sleeping. Shutdown interrupts the wait, and
			// so does a wake of the parking actor: this goroutine is the
			// one it runs on.
			wait := time.Duration(float64(next-c.now) / c.speedup)
			c.mu.Unlock()
			select {
			case <-time.After(wait):
			case <-c.downCh:
			case <-own:
			}
			c.mu.Lock()
			if c.down || c.busy != 0 || c.timers.Len() == 0 || c.timers[0].at != next {
				continue
			}
		}
		c.now = next
		e := heap.Pop(&c.timers).(timerEntry)
		if c.wakeLocked(e.ch) {
			return
		}
		// Stale entry (its actor was woken through another registration);
		// keep advancing.
	}
	if c.busy == 0 && c.timers.Len() == 0 {
		if !c.down && len(c.idle) > 0 {
			c.wakeLocked(c.idle[0].ch)
			c.idle = slices.Delete(c.idle, 0, 1)
			return
		}
		c.cond.Broadcast()
	}
}

type timerEntry struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal deadlines
	ch  chan struct{}
}

type timerHeap []timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
