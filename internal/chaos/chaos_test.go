package chaos

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestNthTriggerFiresOnceByDefault(t *testing.T) {
	in := New(nil, 1)
	in.Arm(Rule{Point: "p", Nth: 3, Err: true})
	for hit := 1; hit <= 5; hit++ {
		f := in.Check("p")
		if hit == 3 {
			if f.Err == nil || !errors.Is(f.Err, ErrInjected) {
				t.Fatalf("hit 3: err = %v, want ErrInjected", f.Err)
			}
			continue
		}
		if f != (Fault{}) {
			t.Fatalf("hit %d fired: %+v", hit, f)
		}
	}
	if n := in.TotalFired(); n != 1 {
		t.Fatalf("fired %d times, want once", n)
	}
}

func TestTimesCapsAndUnlimited(t *testing.T) {
	in := New(nil, 1)
	in.Arm(Rule{Point: "capped", Times: 2, Err: true})
	in.Arm(Rule{Point: "always", Times: -1, Err: true})
	for hit := 1; hit <= 4; hit++ {
		capped := in.Check("capped").Err != nil
		if want := hit <= 2; capped != want {
			t.Fatalf("capped hit %d fired=%v, want %v", hit, capped, want)
		}
		if in.Check("always").Err == nil {
			t.Fatalf("unlimited rule went quiet on hit %d", hit)
		}
	}
}

func TestWindowTrigger(t *testing.T) {
	clk := simclock.New()
	in := New(clk, 1)
	in.Arm(Rule{Point: "p", At: 5 * time.Millisecond, Until: 10 * time.Millisecond, Times: -1, Err: true})
	done := make(chan struct{})
	go func() {
		clk.Go("probe", func() {
			if f := in.Check("p"); f != (Fault{}) {
				t.Errorf("fired before the window: %+v", f)
			}
			clk.Sleep(6 * time.Millisecond)
			if f := in.Check("p"); f.Err == nil {
				t.Error("silent inside the window")
			}
			clk.Sleep(6 * time.Millisecond)
			if f := in.Check("p"); f != (Fault{}) {
				t.Errorf("fired after the window: %+v", f)
			}
		})
		clk.WaitQuiescent()
		close(done)
	}()
	<-done
	clk.Shutdown()
}

func TestProbIsSeedDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(nil, seed)
		in.Arm(Rule{Point: "p", Prob: 0.5, Times: -1, Err: true})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Check("p").Err != nil
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d — not probabilistic", fired, len(a))
	}
}

func TestMergeCombinesFiringRules(t *testing.T) {
	in := New(nil, 1)
	in.Arm(
		Rule{Point: "p", Times: -1, Err: true},
		Rule{Point: "p", Times: -1, Stall: 2 * time.Millisecond},
		Rule{Point: "p", Times: -1, Stall: time.Millisecond, Lie: true},
	)
	f := in.Check("p")
	if f.Err == nil || f.Stall != 2*time.Millisecond || !f.Lie {
		t.Fatalf("merged fault = %+v, want err + max stall (2ms) + lie", f)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	in.Arm(Rule{Point: "p", Err: true})
	if f := in.Check("p"); f != (Fault{}) {
		t.Fatalf("nil injector produced %+v", f)
	}
	if in.TotalFired() != 0 {
		t.Fatal("nil injector kept counters")
	}
}
