package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

func eventsKernel(t *testing.T) (*simclock.Clock, *Kernel) {
	t.Helper()
	clk := simclock.New()
	k := New(clk, Config{
		Models: map[string]*model.Model{"m": model.New(model.Llama13B())},
	})
	return clk, k
}

// drain collects a subscription's events until end-of-stream.
func drain(s *Subscription) []ProcEvent {
	var out []ProcEvent
	for {
		ev, ok := s.Next(nil)
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func TestProcessEventLifecycle(t *testing.T) {
	clk, k := eventsKernel(t)
	defer clk.Shutdown()

	p := k.Submit("u", func(ctx *Ctx) error {
		ctx.Emit("hello ")
		ctx.PublishToken("tok")
		ctx.PublishStatement(3, "generate", "end", "")
		ctx.Emit("world")
		return nil
	})
	clk.Go("waiter", func() { p.Wait() })
	clk.WaitQuiescent()

	if p.Status() != StatusDone {
		t.Fatalf("status = %s, want done", p.Status())
	}
	// A late subscriber replays the full retained history and then sees
	// end-of-stream.
	sub := p.Subscribe(0)
	defer sub.Close()
	events := drain(sub)
	if len(events) != 6 {
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	wantKinds := []EventKind{EventStatus, EventEmit, EventToken, EventStatement, EventEmit, EventStatus}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %s, want %s", i, ev.Kind, wantKinds[i])
		}
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
		if ev.PID != p.PID() {
			t.Fatalf("event %d pid = %d", i, ev.PID)
		}
	}
	if events[0].Status != StatusRunning {
		t.Fatalf("first event status = %s", events[0].Status)
	}
	last := events[len(events)-1]
	if !last.Final || last.Status != StatusDone || last.Err != "" {
		t.Fatalf("terminal event = %+v", last)
	}

	// Subscribing from the middle replays only the suffix.
	mid := p.Subscribe(4)
	defer mid.Close()
	if got := drain(mid); len(got) != 3 || got[0].Seq != 4 {
		t.Fatalf("suffix replay wrong: %+v", got)
	}
}

func TestProcessEventTerminalStates(t *testing.T) {
	clk, k := eventsKernel(t)
	defer clk.Shutdown()

	boom := errors.New("boom")
	fail := k.Submit("u", func(ctx *Ctx) error { return boom })
	cancelled := k.Submit("u", func(ctx *Ctx) error {
		for {
			if err := ctx.Sleep(time.Millisecond); err != nil {
				return err
			}
		}
	})
	clk.Go("canceller", func() {
		clk.Sleep(5 * time.Millisecond)
		cancelled.Cancel()
	})
	clk.Go("waiter", func() { fail.Wait(); cancelled.Wait() })
	clk.WaitQuiescent()

	if fail.Status() != StatusFailed {
		t.Fatalf("fail status = %s", fail.Status())
	}
	sub := fail.Subscribe(0)
	events := drain(sub)
	sub.Close()
	last := events[len(events)-1]
	if !last.Final || last.Status != StatusFailed || last.Err != "boom" {
		t.Fatalf("failed terminal = %+v", last)
	}

	if cancelled.Status() != StatusCancelled {
		t.Fatalf("cancelled status = %s", cancelled.Status())
	}
	sub = cancelled.Subscribe(0)
	events = drain(sub)
	sub.Close()
	// running -> cancelling -> terminal cancelled.
	kinds := map[Status]bool{}
	for _, ev := range events {
		if ev.Kind == EventStatus {
			kinds[ev.Status] = true
		}
	}
	if !kinds[StatusRunning] || !kinds[StatusCancelling] || !kinds[StatusCancelled] {
		t.Fatalf("status transitions missing: %+v", events)
	}
	if got := events[len(events)-1]; !got.Final || got.Status != StatusCancelled {
		t.Fatalf("cancelled terminal = %+v", got)
	}
}

func TestEventRingTrimsHistory(t *testing.T) {
	clk, k := eventsKernel(t)
	defer clk.Shutdown()

	const n = eventRingCap + 100
	p := k.Submit("u", func(ctx *Ctx) error {
		for i := 0; i < n; i++ {
			ctx.PublishToken("x")
		}
		return nil
	})
	clk.Go("waiter", func() { p.Wait() })
	clk.WaitQuiescent()

	sub := p.Subscribe(0)
	defer sub.Close()
	events := drain(sub)
	if len(events) != eventRingCap {
		t.Fatalf("replay length = %d, want ring cap %d", len(events), eventRingCap)
	}
	// The retained window is the most recent events, ending in the
	// terminal one; the gap is visible through the first Seq.
	if events[0].Seq <= 1 {
		t.Fatalf("expected trimmed history, first seq = %d", events[0].Seq)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("gap inside retained window at %d", i)
		}
	}
	if last := events[len(events)-1]; !last.Final {
		t.Fatalf("terminal event lost in trim: %+v", last)
	}
}

func TestSubscribeGapSignal(t *testing.T) {
	clk, k := eventsKernel(t)
	defer clk.Shutdown()

	const n = eventRingCap + 100
	p := k.Submit("u", func(ctx *Ctx) error {
		for i := 0; i < n; i++ {
			ctx.PublishToken("x")
		}
		return nil
	})
	clk.Go("waiter", func() { p.Wait() })
	clk.WaitQuiescent()

	// A resume point evicted from the ring is reported as an explicit
	// gap covering exactly the lost range.
	sub := p.Subscribe(2)
	defer sub.Close()
	events := drain(sub)
	first := events[0].Seq
	gapFrom, gapTo, ok := sub.Gap()
	if !ok {
		t.Fatalf("no gap reported resuming from 2 with first retained %d", first)
	}
	if gapFrom != 2 || gapTo != first-1 {
		t.Fatalf("gap = [%d,%d], want [2,%d]", gapFrom, gapTo, first-1)
	}

	// Fresh subscribers (from 0) and in-window resumes see no gap.
	fresh := p.Subscribe(0)
	defer fresh.Close()
	if _, _, ok := fresh.Gap(); ok {
		t.Fatal("gap reported for a fresh subscriber")
	}
	inWindow := p.Subscribe(first + 10)
	defer inWindow.Close()
	if _, _, ok := inWindow.Gap(); ok {
		t.Fatal("gap reported for an in-window resume")
	}
}

func TestSubscriptionStopChannel(t *testing.T) {
	clk, k := eventsKernel(t)
	defer clk.Shutdown()

	p := k.Submit("u", func(ctx *Ctx) error {
		// Park forever (until cancelled at the end of the test).
		for {
			if err := ctx.Sleep(time.Second); err != nil {
				return err
			}
		}
	})
	sub := p.Subscribe(0)
	defer sub.Close()
	if ev, ok := sub.Next(nil); !ok || ev.Status != StatusRunning {
		t.Fatalf("first event = %+v ok=%v", ev, ok)
	}
	// No more events pending: a closed stop channel aborts the wait
	// instead of blocking.
	stop := make(chan struct{})
	close(stop)
	if _, ok := sub.Next(stop); ok {
		t.Fatalf("Next returned an event after stop")
	}
	p.Cancel()
	clk.Go("waiter", func() { p.Wait() })
	clk.WaitQuiescent()
}
