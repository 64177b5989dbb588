package simclock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// run executes fn as the sole root actor and waits for quiescence, guarding
// against real-time hangs.
func run(t *testing.T, c *Clock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.Go("root", fn)
		c.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("simulation stalled at %v", c.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	c := New()
	var at time.Duration
	run(t, c, func() {
		if err := c.Sleep(3 * time.Hour); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		at = c.Now()
	})
	if at != 3*time.Hour {
		t.Fatalf("Now after sleep = %v, want 3h", at)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	c := New()
	run(t, c, func() {
		if err := c.Sleep(0); err != nil {
			t.Errorf("Sleep(0): %v", err)
		}
		if err := c.Sleep(-time.Second); err != nil {
			t.Errorf("Sleep(-1s): %v", err)
		}
		if c.Now() != 0 {
			t.Errorf("time moved: %v", c.Now())
		}
	})
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	c := New()
	var mu sync.Mutex
	var order []int
	run(t, c, func() {
		wg := c.NewWaitGroup()
		delays := []time.Duration{50, 10, 30, 20, 40}
		for i, d := range delays {
			i, d := i, d
			wg.Add(1)
			c.Go("sleeper", func() {
				defer wg.Done()
				c.Sleep(d * time.Millisecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	want := []int{1, 3, 2, 4, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

// TestEqualDeadlinesFIFO pins today's tie order for sleeps due at the
// same virtual instant: they wake in the order their timers registered
// (timerEntry.seq). That order is what every byte-identical pin in the
// repository runs on, not a promise of the clock; an equal-deadline
// ordering a caller depends on is a defect to fix there.
func TestEqualDeadlinesFIFO(t *testing.T) {
	c := New()
	var mu sync.Mutex
	var order []int
	run(t, c, func() {
		wg := c.NewWaitGroup()
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			c.Go("tied", func() {
				defer wg.Done()
				c.Sleep(time.Second)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
			// Force each actor to register its timer before the next
			// spawns, making registration order deterministic.
			c.Sleep(0)
		}
		wg.Wait()
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestEventFireBeforeWait(t *testing.T) {
	c := New()
	run(t, c, func() {
		e := c.NewEvent()
		e.Fire()
		if err := e.Wait(); err != nil {
			t.Errorf("Wait after Fire: %v", err)
		}
	})
}

func TestEventBroadcast(t *testing.T) {
	c := New()
	var woke int32
	run(t, c, func() {
		e := c.NewEvent()
		wg := c.NewWaitGroup()
		for i := 0; i < 5; i++ {
			wg.Add(1)
			c.Go("waiter", func() {
				defer wg.Done()
				if err := e.Wait(); err == nil {
					atomic.AddInt32(&woke, 1)
				}
			})
		}
		c.Sleep(time.Millisecond)
		e.Fire()
		e.Fire() // double fire is a no-op
		wg.Wait()
	})
	if woke != 5 {
		t.Fatalf("woke %d waiters, want 5", woke)
	}
}

func TestQueueFIFOAcrossTime(t *testing.T) {
	c := New()
	var got []int
	run(t, c, func() {
		q := NewQueue[int](c)
		done := c.NewEvent()
		c.Go("consumer", func() {
			for i := 0; i < 3; i++ {
				v, err := q.Get()
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				got = append(got, v)
			}
			done.Fire()
		})
		c.Sleep(time.Second)
		q.Put(1)
		q.Put(2)
		c.Sleep(time.Second)
		q.Put(3)
		done.Wait()
	})
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	c := New()
	var order []int
	early := -1
	run(t, c, func() {
		s := c.NewSemaphore(10)
		s.Acquire(6) // four units stay free
		wg := c.NewWaitGroup()
		for i, n := range []int{8, 1, 4} {
			wg.Add(1)
			c.Go("waiter", func() {
				defer wg.Done()
				if err := s.Acquire(n); err != nil {
					t.Errorf("acquire %d: %v", n, err)
					return
				}
				order = append(order, i)
				if i == 0 {
					c.Sleep(time.Second)
					s.Release(n)
				}
			})
			c.Sleep(time.Microsecond) // fix arrival order
		}
		// Waiter 1 fits the four free units, and waiter 2 the six free
		// after this release, but waiter 0 is ahead of both.
		s.Release(2)
		c.Sleep(time.Millisecond)
		early = len(order)
		s.Release(4) // ten free: 0 and 1 enter; 2 waits for 0's 8 units
		wg.Wait()
	})
	if early != 0 || len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("%d admitted ahead of the queue head; order %v", early, order)
	}
}

// TestSemaphoreTryAcquire: TryAcquire takes units exactly when Acquire
// would take them without parking — free, with nobody waiting ahead.
func TestSemaphoreTryAcquire(t *testing.T) {
	c := New()
	var got []bool
	run(t, c, func() {
		s := c.NewSemaphore(2)
		got = append(got, s.TryAcquire(1)) // one unit stays free
		c.Go("waiter", func() {
			if err := s.Acquire(2); err != nil {
				t.Errorf("acquire: %v", err)
			}
		})
		c.Sleep(time.Millisecond)          // the waiter queues for two
		got = append(got, s.TryAcquire(1)) // free, but the waiter is ahead
		s.Release(1)                       // the waiter takes both
		got = append(got, s.TryAcquire(1)) // nothing free
	})
	if len(got) != 3 || !got[0] || got[1] || got[2] {
		t.Fatalf("TryAcquire answered %v, want [true false false]", got)
	}
}

func TestEventWaitForTimeout(t *testing.T) {
	c := New()
	run(t, c, func() {
		e := c.NewEvent()
		start := c.Now()
		fired, err := e.WaitFor(50 * time.Millisecond)
		if err != nil || fired {
			t.Errorf("WaitFor = %v,%v; want timeout", fired, err)
		}
		if c.Now()-start != 50*time.Millisecond {
			t.Errorf("timeout at %v", c.Now()-start)
		}
		// Fired before the deadline.
		e2 := c.NewEvent()
		c.Go("firer", func() {
			c.Sleep(10 * time.Millisecond)
			e2.Fire()
		})
		start = c.Now()
		fired, err = e2.WaitFor(time.Hour)
		if err != nil || !fired {
			t.Errorf("WaitFor after fire = %v,%v", fired, err)
		}
		if c.Now()-start != 10*time.Millisecond {
			t.Errorf("woke at %v", c.Now()-start)
		}
		// Already-fired event returns immediately.
		fired, err = e2.WaitFor(time.Hour)
		if err != nil || !fired {
			t.Errorf("WaitFor on fired event = %v,%v", fired, err)
		}
		// The stale timer left in the heap must not wedge the clock.
		c.Sleep(2 * time.Hour)
	})
}

func TestQueueTryGetAndDrain(t *testing.T) {
	c := New()
	run(t, c, func() {
		q := NewQueue[string](c)
		if _, ok := q.TryGet(); ok {
			t.Error("TryGet on empty queue succeeded")
		}
		q.Put("a")
		q.Put("b")
		v, ok := q.TryGet()
		if !ok || v != "a" {
			t.Errorf("TryGet = %q,%v", v, ok)
		}
		rest := q.Drain()
		if len(rest) != 1 || rest[0] != "b" {
			t.Errorf("Drain = %v", rest)
		}
	})
}

func TestShutdownWakesEverything(t *testing.T) {
	// Realtime pacing keeps the 1h timer from firing instantly, so Shutdown
	// reaches the sleeper while it is still parked.
	c := NewRealtime(1)
	var errs int32
	c.Go("sleeper", func() {
		if err := c.Sleep(time.Hour); err == ErrShutdown {
			atomic.AddInt32(&errs, 1)
		}
	})
	c.Go("eventer", func() {
		e := c.NewEvent()
		if err := e.Wait(); err == ErrShutdown {
			atomic.AddInt32(&errs, 1)
		}
	})
	c.Go("getter", func() {
		q := NewQueue[int](c)
		if _, err := q.Get(); err == ErrShutdown {
			atomic.AddInt32(&errs, 1)
		}
	})
	c.Go("acquirer", func() {
		s := c.NewSemaphore(1)
		if err := s.Acquire(2); err == ErrShutdown {
			atomic.AddInt32(&errs, 1)
		}
	})
	// Give the actors a chance to park; they can never finish on their own.
	time.Sleep(50 * time.Millisecond)
	c.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt32(&errs) != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/4 actors saw shutdown", errs)
		}
		time.Sleep(time.Millisecond)
	}
	if !c.Down() {
		t.Error("Down() = false after Shutdown")
	}
	if err := c.Sleep(time.Second); err != ErrShutdown {
		t.Errorf("Sleep after shutdown = %v, want ErrShutdown", err)
	}
}

func TestWaitQuiescentWithDaemon(t *testing.T) {
	// A daemon blocked on a queue that never fills must not prevent
	// quiescence once all real work is done.
	c := New()
	q := NewQueue[int](c)
	c.Go("daemon", func() {
		for {
			if _, err := q.Get(); err != nil {
				return
			}
		}
	})
	var end time.Duration
	run(t, c, func() {
		c.Sleep(5 * time.Second)
		end = c.Now()
	})
	if end != 5*time.Second {
		t.Fatalf("end = %v", end)
	}
	c.Shutdown()
}

func TestNestedSpawnSeesPresent(t *testing.T) {
	// A child spawned at time T must start before the clock can move past T.
	c := New()
	var childStart time.Duration
	run(t, c, func() {
		c.Sleep(time.Second)
		e := c.NewEvent()
		c.Go("child", func() {
			childStart = c.Now()
			e.Fire()
		})
		e.Wait()
		c.Sleep(time.Second)
	})
	if childStart != time.Second {
		t.Fatalf("child started at %v, want 1s", childStart)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: for any random schedule of sleeps across actors, observed
	// timestamps are non-decreasing and equal to the requested offsets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		n := 2 + rng.Intn(6)
		var mu sync.Mutex
		var stamps []time.Duration
		ok := true
		doneCh := make(chan struct{})
		go func() {
			c.Go("root", func() {
				wg := c.NewWaitGroup()
				for i := 0; i < n; i++ {
					steps := 1 + rng.Intn(4)
					durs := make([]time.Duration, steps)
					for j := range durs {
						durs[j] = time.Duration(rng.Intn(1000)) * time.Millisecond
					}
					wg.Add(1)
					c.Go("p", func() {
						defer wg.Done()
						for _, d := range durs {
							before := c.Now()
							if err := c.Sleep(d); err != nil {
								ok = false
								return
							}
							after := c.Now()
							if after < before+d {
								ok = false
							}
							mu.Lock()
							stamps = append(stamps, after)
							mu.Unlock()
						}
					})
				}
				wg.Wait()
			})
			c.WaitQuiescent()
			close(doneCh)
		}()
		select {
		case <-doneCh:
		case <-time.After(10 * time.Second):
			return false
		}
		c.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRealtimePacing(t *testing.T) {
	c := NewRealtime(10) // 10x faster than wall
	start := time.Now()
	run(t, c, func() {
		c.Sleep(300 * time.Millisecond)
	})
	wall := time.Since(start)
	if wall < 20*time.Millisecond {
		t.Fatalf("realtime clock did not pace: wall=%v", wall)
	}
	if c.Now() != 300*time.Millisecond {
		t.Fatalf("virtual now = %v", c.Now())
	}
}

// TestRealtimeWakeOfPacingActor: on a realtime clock the actor that parks
// last paces the wall-clock gap to the next timer in its own goroutine. A
// wake from a non-actor goroutine (an HTTP handler's Put) that targets
// that very actor lets it run at once, not after the gap.
func TestRealtimeWakeOfPacingActor(t *testing.T) {
	c := NewRealtime(1)
	defer c.Shutdown()
	q := NewQueue[int](c)
	got := make(chan time.Duration, 1)
	c.Go("sleeper", func() { c.Sleep(time.Hour) })
	c.Go("waiter", func() {
		if _, err := q.Get(); err == nil {
			got <- c.Now()
		}
	})
	time.Sleep(50 * time.Millisecond) // the waiter parks last and paces toward 1 h
	q.Put(1)
	select {
	case at := <-got:
		if at != 0 {
			t.Fatalf("waiter ran at virtual %v, want 0", at)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("woken waiter still waiting out the pacing gap")
	}
}

// TestFireWakesInWaitOrder pins the serialized-wake guarantee: waiters
// woken by one Fire run one at a time in Wait order, never concurrently,
// so a fan-out wake cannot make identically-seeded runs diverge.
func TestFireWakesInWaitOrder(t *testing.T) {
	const n = 8
	c := New()
	e := c.NewEvent()
	var (
		mu    sync.Mutex
		order []int
	)
	run(t, c, func() {
		wg := c.NewWaitGroup()
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			c.Go("waiter", func() {
				defer wg.Done()
				if err := e.Wait(); err != nil {
					t.Errorf("Wait: %v", err)
				}
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		// Let every waiter park before firing.
		if err := c.Sleep(time.Second); err != nil {
			t.Fatalf("Sleep: %v", err)
		}
		e.Fire()
		if err := wg.Wait(); err != nil {
			t.Fatalf("WaitGroup.Wait: %v", err)
		}
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("wake order %v, want waiters in Wait order", order)
		}
	}
}

// TestSpawnSerialized pins Go's startup ordering: children do not begin
// until the spawning actor parks, and then start in Go-call order.
func TestSpawnSerialized(t *testing.T) {
	const n = 6
	c := New()
	var (
		mu    sync.Mutex
		trace []int
	)
	run(t, c, func() {
		for i := 0; i < n; i++ {
			i := i
			c.Go("child", func() {
				mu.Lock()
				trace = append(trace, i)
				mu.Unlock()
			})
		}
		// The spawner is still running, so no child has started yet.
		mu.Lock()
		started := len(trace)
		mu.Unlock()
		if started != 0 {
			t.Errorf("%d children ran before the spawner parked", started)
		}
	})
	for i, got := range trace {
		if got != i {
			t.Fatalf("start order %v, want children in Go-call order", trace)
		}
	}
}

// signalWake is one Signal.Wait's answer: which waiter, whether it was
// signalled, and when.
type signalWake struct {
	id        int
	signalled bool
	at        time.Duration
}

// TestSignalBroadcastWakesInWaitOrder pins Broadcast's promise: it wakes
// the signal's current waiters in wait order, wakes no waiter of another
// signal, and latches nothing — a Broadcast with nobody waiting is lost.
func TestSignalBroadcastWakesInWaitOrder(t *testing.T) {
	const n = 4
	c := New()
	s, other := c.NewSignal(), c.NewSignal()
	var (
		mu    sync.Mutex
		wakes []signalWake
	)
	wait := func(id int, on *Signal) {
		signalled, err := on.Wait()
		if err != nil {
			t.Errorf("waiter %d: %v", id, err)
		}
		mu.Lock()
		wakes = append(wakes, signalWake{id, signalled, c.Now()})
		mu.Unlock()
	}
	run(t, c, func() {
		s.Broadcast() // nobody waits: lost
		c.Go("other", func() { wait(-1, other) })
		for i := 0; i < n; i++ {
			c.Go("waiter", func() { wait(i, s) })
		}
		if err := c.Sleep(time.Second); err != nil {
			t.Fatalf("Sleep: %v", err)
		}
		s.Broadcast()
	})
	want := []signalWake{{0, true, time.Second}, {1, true, time.Second}, {2, true, time.Second}, {3, true, time.Second}, {-1, false, time.Second}}
	if len(wakes) != len(want) {
		t.Fatalf("wakes %v, want %v", wakes, want)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wakes %v, want %v", wakes, want)
		}
	}
}

// TestSignalIdleWaitersOnePerQuiescence pins Wait's other answer: once
// nothing else can run, the oldest waiter on any signal is answered "not
// signalled", and the next only once the clock is quiescent again — here
// after the answered one's 1 s of work.
func TestSignalIdleWaitersOnePerQuiescence(t *testing.T) {
	const n = 3
	c := New()
	signals := []*Signal{c.NewSignal(), c.NewSignal()}
	var (
		mu    sync.Mutex
		wakes []signalWake
	)
	run(t, c, func() {
		for i := 0; i < n; i++ {
			c.Go("waiter", func() {
				signalled, err := signals[i%2].Wait()
				if err != nil {
					t.Errorf("waiter %d: %v", i, err)
				}
				mu.Lock()
				wakes = append(wakes, signalWake{i, signalled, c.Now()})
				mu.Unlock()
				if err := c.Sleep(time.Second); err != nil {
					t.Errorf("waiter %d: %v", i, err)
				}
			})
		}
	})
	if len(wakes) != n {
		t.Fatalf("wakes %v, want %d", wakes, n)
	}
	for i, w := range wakes {
		if want := (signalWake{i, false, time.Duration(i) * time.Second}); w != want {
			t.Fatalf("wakes %v, want waiter i answered unsignalled at i s", wakes)
		}
	}
}

// TestSignalOwnParkIsNotSomethingToRun: a lone waiter is answered at once,
// its own park counting as nothing to wait for, while a due timer keeps a
// waiter parked until the sleeper behind it broadcasts.
func TestSignalOwnParkIsNotSomethingToRun(t *testing.T) {
	c := New()
	s := c.NewSignal()
	var lone, woken signalWake
	run(t, c, func() {
		signalled, err := s.Wait()
		if err != nil {
			t.Errorf("lone Wait: %v", err)
		}
		lone = signalWake{0, signalled, c.Now()}
		c.Go("sleeper", func() {
			if err := c.Sleep(5 * time.Second); err != nil {
				t.Errorf("Sleep: %v", err)
			}
			s.Broadcast()
		})
		signalled, err = s.Wait()
		if err != nil {
			t.Errorf("Wait behind the sleeper: %v", err)
		}
		woken = signalWake{1, signalled, c.Now()}
	})
	if want := (signalWake{0, false, 0}); lone != want {
		t.Errorf("lone waiter answered %+v, want %+v", lone, want)
	}
	if want := (signalWake{1, true, 5 * time.Second}); woken != want {
		t.Errorf("waiter behind a sleeper answered %+v, want %+v", woken, want)
	}
}

// TestSignalShutdown: Shutdown answers a parked waiter with ErrShutdown,
// and a Wait after it fails fast.
func TestSignalShutdown(t *testing.T) {
	// Realtime pacing keeps the sleeper's 1 h timer due, so the waiter is
	// still parked when Shutdown comes.
	c := NewRealtime(1)
	s := c.NewSignal()
	errs := make(chan error, 1)
	c.Go("sleeper", func() { c.Sleep(time.Hour) })
	c.Go("waiter", func() {
		signalled, err := s.Wait()
		if signalled {
			t.Error("waiter signalled by Shutdown")
		}
		errs <- err
	})
	time.Sleep(50 * time.Millisecond)
	c.Shutdown()
	select {
	case err := <-errs:
		if err != ErrShutdown {
			t.Fatalf("Wait = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not answer the waiter")
	}
	if _, err := s.Wait(); err != ErrShutdown {
		t.Fatalf("Wait after Shutdown = %v, want ErrShutdown", err)
	}
	s.Broadcast() // a no-op after Shutdown
}

// TestWaitQuiescentAnswersIdleWaiters: the clock is not quiescent while a
// Signal waiter is still unanswered, so WaitQuiescent, called from outside
// every actor, returns only after each waiter has had its answer.
func TestWaitQuiescentAnswersIdleWaiters(t *testing.T) {
	const n = 5
	c := New()
	s := c.NewSignal()
	var answered atomic.Int32
	c.Go("root", func() {
		for i := 0; i < n; i++ {
			c.Go("waiter", func() {
				if signalled, err := s.Wait(); signalled || err != nil {
					t.Errorf("waiter %d: signalled %v, err %v", i, signalled, err)
				}
				answered.Add(1)
			})
		}
	})
	done := make(chan struct{})
	go func() {
		c.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("WaitQuiescent stalled with %d of %d waiters answered", answered.Load(), n)
	}
	if got := answered.Load(); got != n {
		t.Fatalf("WaitQuiescent returned with %d of %d waiters answered", got, n)
	}
}

// TestSignalBroadcastAllocatesNothing: a Broadcast nobody waits for, the
// common case of a KV release, allocates nothing.
func TestSignalBroadcastAllocatesNothing(t *testing.T) {
	s := New().NewSignal()
	if n := testing.AllocsPerRun(100, s.Broadcast); n != 0 {
		t.Fatalf("Broadcast with no waiter allocates %v times", n)
	}
}

// TestSignalBroadcastFromOtherGoroutines: Broadcast may come from any
// goroutine (an HTTP handler cancelling a process), concurrently with
// actors waiting and with other Broadcasts.
func TestSignalBroadcastFromOtherGoroutines(t *testing.T) {
	// The ticker keeps a timer due until Shutdown, so the waiter is never
	// answered by quiescence: only Broadcasts and Shutdown end its waits.
	c := New()
	s := c.NewSignal()
	var woken atomic.Int32
	exited := make(chan struct{})
	c.Go("ticker", func() {
		for c.Sleep(time.Millisecond) == nil {
		}
	})
	c.Go("waiter", func() {
		defer close(exited)
		for {
			signalled, err := s.Wait()
			if err != nil {
				return
			}
			if !signalled {
				t.Error("waiter answered unsignalled while a timer was due")
				return
			}
			woken.Add(1)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Broadcast()
			}
		}()
	}
	wg.Wait()
	for woken.Load() == 0 {
		s.Broadcast()
		time.Sleep(time.Millisecond)
	}
	c.Shutdown()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not see Shutdown")
	}
}
