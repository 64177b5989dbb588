package lipscript

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/model"
	"repro/internal/simclock"
)

func newKernel() (*simclock.Clock, *core.Kernel) {
	clk := simclock.New()
	k := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})
	RegisterTools(k)
	return clk, k
}

func runScript(t *testing.T, k *core.Kernel, clk *simclock.Clock, js string) (*core.Process, error) {
	t.Helper()
	var p *core.Process
	var serr error
	done := make(chan struct{})
	go func() {
		clk.Go("client", func() {
			var err error
			p, err = Submit(k, "wire", []byte(js))
			if err != nil {
				serr = err
				return
			}
			serr = p.Wait()
		})
		clk.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stalled: %v", clk.Snapshot())
	}
	return p, serr
}

func TestParseValidation(t *testing.T) {
	bad := []string{
		``,
		`{}`,
		`{"steps":[]}`,
		`{"steps":[{"op":"launch_missiles"}]}`,
		`{"steps":[{"op":"anon"}]}`,
		`{"steps":[{"op":"prefill","s":"a","text":"x"}]}`,                                  // undefined session
		`{"steps":[{"op":"anon","s":"a"},{"op":"generate","s":"a"}]}`,                      // max_tokens missing
		`{"steps":[{"op":"anon","s":"a"},{"op":"fork","s":"b","from":"zzz"}]}`,             // bad fork source
		`{"steps":[{"op":"anon","s":"a"},{"op":"prefill","s":"a","text":"x","zzz":true}]}`, // unknown field
		`{"steps":[{"op":"anon","s":"a"},{"op":"link","s":"a"}]}`,                          // link without path
		`{"steps":[{"op":"call"}]}`,                                                        // tool missing
	}
	for _, js := range bad {
		if _, err := Parse([]byte(js)); err == nil {
			t.Errorf("accepted invalid script %q", js)
		}
	}
	good := `{"budget":1000,"steps":[
		{"op":"anon","s":"a"},
		{"op":"prefill","s":"a","text":"hello"},
		{"op":"generate","s":"a","max_tokens":8}
	]}`
	s, err := Parse([]byte(good))
	if err != nil {
		t.Fatalf("rejected valid script: %v", err)
	}
	if s.Budget != 1000 || len(s.Steps) != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if s.WireBytes() <= 0 {
		t.Fatal("wire size")
	}
}

func TestScriptMatchesNativeLIP(t *testing.T) {
	// The declarative agent must produce the same output as the same
	// program written natively against the syscall API.
	js := `{"steps":[
		{"op":"anon","s":"ctx"},
		{"op":"prefill","s":"ctx","text":"plan a trip. "},
		{"op":"generate","s":"ctx","max_tokens":8,"out":"thought"},
		{"op":"call","tool":"weather","text":"paris","out":"obs"},
		{"op":"prefill","s":"ctx","text":"${obs} "},
		{"op":"generate","s":"ctx","max_tokens":8},
		{"op":"emit","text":" [thought was: ${thought}]"},
		{"op":"remove","s":"ctx"}
	]}`
	clk, k := newKernel()
	p, err := runScript(t, k, clk, js)
	if err != nil {
		t.Fatalf("script failed: %v", err)
	}
	scriptOut := p.Output()
	clk.Shutdown()

	clk2, k2 := newKernel()
	var nativeOut string
	done := make(chan struct{})
	go func() {
		clk2.Go("client", func() {
			p := k2.Submit("wire", nativeAgent(t))
			if err := p.Wait(); err != nil {
				t.Errorf("native LIP: %v", err)
			}
			nativeOut = p.Output()
		})
		clk2.WaitQuiescent()
		close(done)
	}()
	<-done
	clk2.Shutdown()

	if scriptOut == "" || scriptOut != nativeOut {
		t.Fatalf("script diverged from native:\n%q\n%q", scriptOut, nativeOut)
	}
	if k.Stats().FS.GPUPages != 0 {
		t.Fatal("script leaked KV pages")
	}
}

func nativeAgent(t *testing.T) core.Program {
	return func(ctx *core.Ctx) error {
		f, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer f.Remove()
		s := lip.NewSession(ctx, f)
		if _, err := s.Prefill("plan a trip. "); err != nil {
			return err
		}
		res, err := lip.Generate(s, lip.GenOptions{MaxTokens: 8})
		if err != nil {
			return err
		}
		thought := ctx.Detokenize(res.Tokens)
		obs, err := ctx.Call("weather", "paris")
		if err != nil {
			return err
		}
		if _, err := s.Prefill(obs + " "); err != nil {
			return err
		}
		res2, err := lip.Generate(s, lip.GenOptions{MaxTokens: 8})
		if err != nil {
			return err
		}
		ctx.Emit(ctx.Detokenize(res2.Tokens))
		ctx.Emit(" [thought was: " + thought + "]")
		return nil
	}
}

func TestScriptPromptCachePattern(t *testing.T) {
	// Two wire programs cooperate on a named cache file: the second skips
	// the build (prefill_if_empty) and forks.
	js := func(q string) string {
		return `{"steps":[
			{"op":"create","s":"doc","path":"wiki/42.kv"},
			{"op":"lock","s":"doc"},
			{"op":"prefill_if_empty","s":"doc","text":"the document body with many words in it"},
			{"op":"unlock","s":"doc"},
			{"op":"fork","s":"q","from":"doc"},
			{"op":"prefill","s":"q","text":"` + q + `"},
			{"op":"generate","s":"q","max_tokens":6},
			{"op":"remove","s":"q"}
		]}`
	}
	clk, k := newKernel()
	var first, second time.Duration
	done := make(chan struct{})
	go func() {
		clk.Go("client", func() {
			start := clk.Now()
			p1, err := Submit(k, "wire", []byte(js("q1?")))
			if err != nil {
				t.Error(err)
				return
			}
			if err := p1.Wait(); err != nil {
				t.Errorf("p1: %v", err)
			}
			first = clk.Now() - start
			start = clk.Now()
			p2, err := Submit(k, "wire", []byte(js("q2?")))
			if err != nil {
				t.Error(err)
				return
			}
			if err := p2.Wait(); err != nil {
				t.Errorf("p2: %v", err)
			}
			second = clk.Now() - start
		})
		clk.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stalled: %v", clk.Snapshot())
	}
	clk.Shutdown()
	if second >= first {
		t.Fatalf("wire prompt caching gave no speedup: %v then %v", first, second)
	}
}

func TestScriptBudgetEnforced(t *testing.T) {
	js := `{"budget":5,"steps":[
		{"op":"anon","s":"a"},
		{"op":"prefill","s":"a","text":"far too many words for this tiny budget"}
	]}`
	clk, k := newKernel()
	_, err := runScript(t, k, clk, js)
	clk.Shutdown()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestInterpolation(t *testing.T) {
	vars := map[string]string{"a": "X", "b": "Y"}
	cases := map[string]string{
		"plain":         "plain",
		"${a}":          "X",
		"${a}-${b}":     "X-Y",
		"${missing}!":   "!",
		"trail ${":      "trail ${",
		"${a} and ${a}": "X and X",
	}
	for in, want := range cases {
		if got := interpolate(in, vars); got != want {
			t.Errorf("interpolate(%q) = %q, want %q", in, got, want)
		}
	}
	if strings.Contains(interpolate("no refs", vars), "$") {
		t.Fatal("mangled plain text")
	}
}
