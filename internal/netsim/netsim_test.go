package netsim

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

func runActor(t *testing.T, c *simclock.Clock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.Go("test", fn)
		c.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("stalled at %v", c.Now())
	}
}

func TestRoundTripChargesRTT(t *testing.T) {
	clk := simclock.New()
	l := New(clk, 30*time.Millisecond, 0)
	runActor(t, clk, func() {
		// A round trip is two one-way crossings.
		for i := 0; i < 2; i++ {
			if err := l.OneWay(100); err != nil {
				t.Errorf("OneWay: %v", err)
			}
		}
	})
	if got := clk.Now(); got != 30*time.Millisecond {
		t.Fatalf("elapsed = %v, want 30ms", got)
	}
}

func TestBandwidthCharged(t *testing.T) {
	clk := simclock.New()
	l := New(clk, 0, 1_000_000) // 1 MB/s
	runActor(t, clk, func() {
		l.OneWay(500_000)
	})
	if got := clk.Now(); got != 500*time.Millisecond {
		t.Fatalf("elapsed = %v, want 500ms", got)
	}
}

func TestZeroLinkFree(t *testing.T) {
	clk := simclock.New()
	l := New(clk, 0, 0)
	runActor(t, clk, func() {
		if err := l.OneWay(1 << 20); err != nil {
			t.Errorf("OneWay: %v", err)
		}
	})
	if clk.Now() != 0 {
		t.Fatalf("zero link charged time: %v", clk.Now())
	}
}

func TestTransferTimeMatchesOneWay(t *testing.T) {
	clk := simclock.New()
	l := Default(clk)
	want := l.TransferTime(1000)
	runActor(t, clk, func() {
		l.OneWay(1000)
	})
	if clk.Now() != want {
		t.Fatalf("OneWay %v != TransferTime %v", clk.Now(), want)
	}
	if want <= DefaultRTT/2 {
		t.Fatal("bandwidth component missing")
	}
}
