package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lipscript"
	"repro/internal/model"
	"repro/internal/simclock"
)

// TestRegistryExpiresByEndTime submits a job that ends at 3 s and then one
// that ends at 1 s. At 12 s, with a 10 s retention, the later-submitted job
// must be gone and the earlier one still retained; at 14 s both are gone.
// The live-job cap counts only unfinished jobs.
func TestRegistryExpiresByEndTime(t *testing.T) {
	clk := simclock.New()
	defer clk.Shutdown()
	k := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})
	noop := func(string) (string, error) { return "", nil }
	k.RegisterTool("slow", core.Tool{Latency: 3 * time.Second, Fn: noop})
	k.RegisterTool("fast", core.Tool{Latency: time.Second, Fn: noop})
	r := newJobRegistry(clk, k, Options{MaxJobsPerUser: 2, Retention: 10 * time.Second})
	call := func(tool string) *lipscript.Script {
		s, err := lipscript.Parse([]byte(`{"steps":[{"op":"call","tool":"` + tool + `"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	retained := func(id string) bool {
		_, err := r.Get(id)
		return err == nil
	}

	done := make(chan struct{})
	clk.Go("driver", func() {
		defer close(done)
		a, err := r.Submit("u", call("slow"))
		if err != nil {
			t.Error(err)
			return
		}
		b, err := r.Submit("u", call("fast"))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := r.Submit("u", call("fast")); !errors.Is(err, errJobQuota) {
			t.Errorf("third live job: err = %v, want the quota error", err)
		}
		clk.Sleep(12 * time.Second)
		if retained(b.ID) || !retained(a.ID) {
			t.Errorf("at 12 s: retained a=%v b=%v, want a only", retained(a.ID), retained(b.ID))
		}
		c, err := r.Submit("u", call("fast"))
		if err != nil {
			t.Errorf("submit after both finished: %v", err)
			return
		}
		clk.Sleep(2 * time.Second)
		if retained(a.ID) || !retained(c.ID) {
			t.Errorf("at 14 s: retained a=%v c=%v, want c only", retained(a.ID), retained(c.ID))
		}
		if got := r.List("u"); len(got) != 1 || got[0] != c {
			t.Errorf("List at 14 s = %v, want c only", got)
		}
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stalled at %v", clk.Now())
	}
}
