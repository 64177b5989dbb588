package simclock

import (
	"container/heap"
	"slices"
	"time"
)

// Event is a one-shot, broadcast synchronization point on a Clock. Any
// number of actors may Wait; the first Fire wakes them all, and Waits after
// the Fire return immediately. Events are how actors hand results to each
// other without hiding from the scheduler.
type Event struct {
	c       *Clock
	fired   bool
	waiters []chan struct{}
}

// NewEvent returns an unfired event bound to the clock.
func (c *Clock) NewEvent() *Event {
	return &Event{c: c}
}

// Wait parks the calling actor until the event fires. It returns
// ErrShutdown if the clock is shut down first.
func (e *Event) Wait() error {
	c := e.c
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return ErrShutdown
	}
	if e.fired {
		c.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	e.waiters = append(e.waiters, ch)
	c.parkLocked(ch)
	c.mu.Unlock()
	<-ch
	c.mu.Lock()
	down := c.down && !e.fired
	c.mu.Unlock()
	if down {
		return ErrShutdown
	}
	return nil
}

// WaitFor parks the calling actor until the event fires or d of virtual
// time elapses, whichever comes first. It reports whether the event had
// fired by the time the actor woke. The unfired-timer or unfired-event
// registration left behind is harmless: waking an already-woken channel is
// a no-op.
func (e *Event) WaitFor(d time.Duration) (fired bool, err error) {
	if d < 0 {
		d = 0
	}
	c := e.c
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return false, ErrShutdown
	}
	if e.fired {
		c.mu.Unlock()
		return true, nil
	}
	ch := make(chan struct{})
	e.waiters = append(e.waiters, ch)
	c.nextTimerID++
	heap.Push(&c.timers, timerEntry{at: c.now + d, seq: c.nextTimerID, ch: ch})
	c.parkLocked(ch)
	c.mu.Unlock()
	<-ch
	c.mu.Lock()
	fired = e.fired
	down := c.down && !fired
	c.mu.Unlock()
	if down {
		return false, ErrShutdown
	}
	return fired, nil
}

// Fire wakes all current and future waiters. Firing more than once is a
// no-op. Fire never blocks and may be called from any goroutine. Waiters
// wake one at a time in Wait order (zero-delay timers, not direct wakes),
// so a fan-out fire cannot make the woken actors race each other.
func (e *Event) Fire() {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.fired || c.down {
		return
	}
	e.fired = true
	for _, ch := range e.waiters {
		c.wakeSoonLocked(ch)
	}
	e.waiters = nil
}

// Signal is a reusable broadcast on a Clock, for actors that wait until
// another changes what they retry on; the package doc states its promises.
type Signal struct {
	c   *Clock
	gen uint64 // Broadcasts so far
}

type sigWaiter struct {
	s  *Signal
	ch chan struct{}
}

// NewSignal returns a signal bound to the clock.
func (c *Clock) NewSignal() *Signal { return &Signal{c: c} }

// Wait parks the calling actor until the next Broadcast on s and reports
// true, or reports false once nothing else can run. It returns
// ErrShutdown if the clock shuts down first.
func (s *Signal) Wait() (signalled bool, err error) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return false, ErrShutdown
	}
	gen, ch := s.gen, make(chan struct{})
	c.idle = append(c.idle, sigWaiter{s, ch})
	c.parkLocked(ch)
	c.mu.Unlock()
	<-ch
	c.mu.Lock()
	if s.gen == gen && c.down {
		return false, ErrShutdown
	}
	return s.gen != gen, nil
}

// Broadcast wakes every actor waiting on s through zero-delay timers, as
// Event.Fire does. It never blocks; any goroutine may call it.
func (s *Signal) Broadcast() {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	s.gen++
	for _, w := range c.idle {
		if w.s == s {
			c.wakeSoonLocked(w.ch)
		}
	}
	c.idle = slices.DeleteFunc(c.idle, func(w sigWaiter) bool { return w.s == s })
}

// Queue is an unbounded FIFO connecting actors, the simulation-aware
// equivalent of a buffered channel. Multiple producers and consumers are
// allowed.
type Queue[T any] struct {
	c       *Clock
	items   []T
	waiters []chan struct{}
}

// NewQueue returns an empty queue bound to clock c.
func NewQueue[T any](c *Clock) *Queue[T] {
	return &Queue[T]{c: c}
}

// Put appends v and wakes one waiting consumer, if any. Put never blocks.
func (q *Queue[T]) Put(v T) {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		ch := q.waiters[0]
		q.waiters = q.waiters[1:]
		c.wakeSoonLocked(ch)
	}
}

// Get removes and returns the oldest item, parking the calling actor while
// the queue is empty. It returns ErrShutdown if the clock shuts down.
func (q *Queue[T]) Get() (T, error) {
	c := q.c
	c.mu.Lock()
	for {
		if c.down {
			c.mu.Unlock()
			var zero T
			return zero, ErrShutdown
		}
		if len(q.items) > 0 {
			v := q.items[0]
			q.items = q.items[1:]
			c.mu.Unlock()
			return v, nil
		}
		ch := make(chan struct{})
		q.waiters = append(q.waiters, ch)
		c.parkLocked(ch)
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
}

// TryGet removes and returns the oldest item without blocking. The second
// result reports whether an item was available.
func (q *Queue[T]) TryGet() (T, bool) {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Drain removes and returns all queued items without blocking.
func (q *Queue[T]) Drain() []T {
	c := q.c
	c.mu.Lock()
	defer c.mu.Unlock()
	out := q.items
	q.items = nil
	return out
}

// Semaphore is a weighted FIFO semaphore on a Clock: Acquire(n) takes n
// units, parking while fewer are free or an earlier caller still waits,
// and Release hands freed units to waiters strictly in arrival order
// before it wakes them. A request larger than the capacity never fits, so
// callers decide what an oversized request means before they acquire.
type Semaphore struct {
	c       *Clock
	free    int
	waiters []*semWaiter
}

type semWaiter struct {
	n       int
	ch      chan struct{}
	granted bool
}

// NewSemaphore returns a semaphore with n units free.
func (c *Clock) NewSemaphore(n int) *Semaphore {
	return &Semaphore{c: c, free: n}
}

// Acquire parks the calling actor until n units are its own. It returns
// ErrShutdown if the clock shuts down first.
func (s *Semaphore) Acquire(n int) error {
	c := s.c
	c.mu.Lock()
	if s.takeLocked(n) {
		c.mu.Unlock()
		return nil
	}
	if c.down {
		c.mu.Unlock()
		return ErrShutdown
	}
	w := &semWaiter{n: n, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	c.parkLocked(w.ch)
	c.mu.Unlock()
	<-w.ch
	c.mu.Lock()
	defer c.mu.Unlock()
	if !w.granted {
		return ErrShutdown
	}
	return nil
}

// TryAcquire takes n units if Acquire would take them without parking,
// and reports whether it did. It never blocks.
func (s *Semaphore) TryAcquire(n int) bool {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return s.takeLocked(n)
}

// takeLocked takes n units if they are free and nobody waits ahead.
// Caller holds c.mu.
func (s *Semaphore) takeLocked(n int) bool {
	if len(s.waiters) == 0 && s.free >= n {
		s.free -= n
		return true
	}
	return false
}

// Release returns n units and admits the waiters they now cover, in order.
func (s *Semaphore) Release(n int) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return
	}
	s.free += n
	for len(s.waiters) > 0 && s.waiters[0].n <= s.free {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.free -= w.n
		w.granted = true
		c.wakeSoonLocked(w.ch)
	}
}

// WaitGroup is the simulation-aware analogue of sync.WaitGroup, used by
// actors to join on a set of child actors.
type WaitGroup struct {
	c    *Clock
	n    int
	done *Event
}

// NewWaitGroup returns a WaitGroup with a zero counter.
func (c *Clock) NewWaitGroup() *WaitGroup {
	return &WaitGroup{c: c, done: c.NewEvent()}
}

// Add adjusts the counter by delta. The counter must not go negative.
func (w *WaitGroup) Add(delta int) {
	w.c.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.c.mu.Unlock()
		panic("simclock: negative WaitGroup counter")
	}
	fire := w.n == 0
	w.c.mu.Unlock()
	if fire {
		w.done.Fire()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling actor until the counter reaches zero. A WaitGroup
// is single-use: after the counter first reaches zero Wait always returns
// immediately.
func (w *WaitGroup) Wait() error { return w.done.Wait() }
