package netsim

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestInterconnectTransferScalesWithPages checks the fabric timing
// model: one-way transfer time is the propagation floor plus a term
// strictly linear in the page count, so moving twice the pages costs
// exactly twice the serialization.
func TestInterconnectTransferScalesWithPages(t *testing.T) {
	clk := simclock.New()
	defer clk.Shutdown()
	const pageBytes = 16 * (800 << 10) // 16 tokens x 800 KB
	ic := NewInterconnect(clk, 10*time.Microsecond, 12_500_000_000)

	floor := ic.PageTransferTime(0, pageBytes)
	if floor != 0 {
		t.Fatalf("zero pages cost %v, want 0", floor)
	}
	one := ic.PageTransferTime(1, pageBytes)
	if one <= 5*time.Microsecond {
		t.Fatalf("one page cost %v, want > propagation floor", one)
	}
	prev := one
	for _, pages := range []int{2, 4, 8, 64} {
		got := ic.PageTransferTime(pages, pageBytes)
		if got <= prev {
			t.Fatalf("%d pages cost %v, not above %v", pages, got, prev)
		}
		// Serialization (cost above the RTT/2 floor) must scale exactly
		// with the page count.
		wantSerial := time.Duration(pages) * (one - 5*time.Microsecond)
		gotSerial := got - 5*time.Microsecond
		if diff := gotSerial - wantSerial; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%d pages: serialization %v, want %v (linear in pages)", pages, gotSerial, wantSerial)
		}
		prev = got
	}
}

// TestInterconnectTransferChargesActor checks TransferPages charges the
// calling actor the same virtual time PageTransferTime predicts.
func TestInterconnectTransferChargesActor(t *testing.T) {
	clk := simclock.New()
	const pageBytes = 1 << 20
	ic := DefaultInterconnect(clk)

	var elapsed time.Duration
	done := make(chan struct{})
	go func() {
		clk.Go("mover", func() {
			start := clk.Now()
			if err := ic.TransferPages(32, pageBytes); err != nil {
				t.Errorf("transfer: %v", err)
			}
			elapsed = clk.Now() - start
		})
		clk.WaitQuiescent()
		close(done)
	}()
	<-done
	clk.Shutdown()

	if want := ic.PageTransferTime(32, pageBytes); elapsed != want {
		t.Errorf("charged %v, want %v", elapsed, want)
	}
	if ic.Gbps() != 100 {
		t.Errorf("Gbps = %v, want 100", ic.Gbps())
	}
}
