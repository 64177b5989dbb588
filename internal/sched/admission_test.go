package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

func TestAdmitGateDefersUnderPressure(t *testing.T) {
	clk := simclock.New()
	var pressure atomic.Value
	pressure.Store(1.0)
	s := New(clk, Config{
		Models:         map[string]model.CostModel{target: model.A100Llama13B()},
		Pressure:       func() float64 { return pressure.Load().(float64) },
		AdmitHighWater: 0.9,
		AdmitMaxWait:   50 * time.Millisecond,
	})
	var start, end time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1)
		clk.Go("call", func() {
			defer wg.Done()
			// The kernel calls Admit before a pred's KV allocation and
			// only then submits the call.
			start = clk.Now()
			if err := s.Admit(); err != nil {
				t.Errorf("Admit: %v", err)
			}
			end = clk.Now()
			if err := submit(s, target, 4); err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
		// Pressure subsides after 5ms; the gate must release the call
		// well before its AdmitMaxWait bound.
		wg.Add(1)
		clk.Go("relief", func() {
			defer wg.Done()
			clk.Sleep(5 * time.Millisecond)
			pressure.Store(0.5)
		})
		wg.Wait()
	})
	if end-start < 5*time.Millisecond {
		t.Fatalf("admission not deferred: took %v", end-start)
	}
	if end-start > 40*time.Millisecond {
		t.Fatalf("admission held past pressure relief: took %v", end-start)
	}
	st := s.Stats()
	if st.AdmitDeferred != 1 || st.AdmitWait < 5*time.Millisecond {
		t.Fatalf("admission stats = deferred %d, wait %v", st.AdmitDeferred, st.AdmitWait)
	}
}

func TestAdmitGateBoundedWait(t *testing.T) {
	// Pressure that never subsides must not starve admissions: the gate
	// releases them after AdmitMaxWait.
	clk := simclock.New()
	s := New(clk, Config{
		Models:       map[string]model.CostModel{target: model.A100Llama13B()},
		Pressure:     func() float64 { return 1.0 },
		AdmitMaxWait: 8 * time.Millisecond,
	})
	var took time.Duration
	run(t, clk, func() {
		start := clk.Now()
		if err := s.Admit(); err != nil {
			t.Errorf("Admit: %v", err)
		}
		took = clk.Now() - start
	})
	if took < 8*time.Millisecond {
		t.Fatalf("gate released early under sustained pressure: %v", took)
	}
	if took > 100*time.Millisecond {
		t.Fatalf("gate starved the admission: %v", took)
	}
}

func TestAdmitGateFreeWithoutPressureSource(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	run(t, clk, func() {
		before := clk.Now()
		if err := s.Admit(); err != nil {
			t.Errorf("Admit: %v", err)
		}
		if clk.Now() != before {
			t.Errorf("gate burned virtual time without a pressure source")
		}
		if err := submit(s, target, 4); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	st := s.Stats()
	if st.AdmitDeferred != 0 || st.AdmitWait != 0 {
		t.Fatalf("gate engaged without a pressure source: %+v", st)
	}
}
