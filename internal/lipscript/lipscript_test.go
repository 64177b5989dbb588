package lipscript

import (
	"errors"
	"reflect"
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
		t.Fatalf("stalled at %v", clk.Now())
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

// TestValidateRejectsAtParse: a script that would fail at run time on
// a removed session, or whose budget or temperature is negative, is a
// validation error naming the offending step (or the script's budget),
// never a run-time panic or a silent default.
func TestValidateRejectsAtParse(t *testing.T) {
	const removed = `{"op":"anon","s":"a"},{"op":"remove","s":"a"}`
	for _, tc := range []struct {
		name, script, want string
	}{
		{"prefill removed", `{"steps":[` + removed + `,{"op":"prefill","s":"a","text":"hi"}]}`, "step 2 (prefill): session not defined"},
		{"fork removed", `{"steps":[` + removed + `,{"op":"fork","s":"b","from":"a"}]}`, "step 2 (fork): fork source not defined"},
		{"lock removed", `{"steps":[` + removed + `,{"op":"lock","s":"a"}]}`, "step 2 (lock): session not defined"},
		{"generate removed", `{"steps":[` + removed + `,{"op":"generate","s":"a","max_tokens":4}]}`, "step 2 (generate): session not defined"},
		{"link removed", `{"steps":[` + removed + `,{"op":"link","s":"a","path":"p"}]}`, "step 2 (link): session not defined"},
		{"remove removed", `{"steps":[` + removed + `,{"op":"remove","s":"a"}]}`, "step 2 (remove): session not defined"},
		{"negative budget", `{"budget":-1,"steps":[{"op":"emit","text":"x"}]}`, "budget must not be negative"},
		{"negative temperature", `{"steps":[{"op":"anon","s":"a"},{"op":"generate","s":"a","max_tokens":4,"temperature":-0.5}]}`, "step 1 (generate): temperature must not be negative"},
		{"trailing garbage", `{"steps":[{"op":"emit","text":"x"}]} garbage`, "trailing data"},
		{"second object", `{"steps":[{"op":"emit","text":"x"}]}{"steps":[]}`, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.script))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// A removed name defined again is a new session.
	again := `{"steps":[` + removed + `,{"op":"anon","s":"a"},{"op":"prefill","s":"a","text":"hi"}]}`
	if _, err := Parse([]byte(again)); err != nil {
		t.Fatalf("rejected a session defined again after remove: %v", err)
	}
	// Whitespace after the object is not trailing data.
	if _, err := Parse([]byte(`{"steps":[{"op":"emit","text":"x"}]}` + " \n\t")); err != nil {
		t.Fatalf("rejected trailing whitespace: %v", err)
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
		t.Fatalf("stalled at %v", clk.Now())
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

// TestSampledGenerateIsDecodeRun runs seeded-sampled generates on a plain
// and on a speculating kernel: each generate is one decode run on both,
// speculated on the second, and the output is the same, because the
// committed tokens are the target's own draws. The second script is the
// shape of the agent program the repository benchmark's daemon_http
// workload sends symphonyd, which speculates by default: a sampled
// generate whose text a tool call and a prefill follow, an emit, and a
// second sampled generate.
func TestSampledGenerateIsDecodeRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		js    string
		preds int64
	}{
		{"one generate", `{"steps":[
			{"op":"anon","s":"a"},
			{"op":"prefill","s":"a","text":"route this sampled generation"},
			{"op":"generate","s":"a","max_tokens":40,"temperature":0.7,"seed":7}
		]}`, 2},
		{"agent", `{"steps":[
			{"op":"anon","s":"c"},
			{"op":"prefill","s":"c","text":"plan the answer to a question that needs one search"},
			{"op":"generate","s":"c","max_tokens":16,"temperature":0.7,"seed":11,"out":"thought"},
			{"op":"call","tool":"search","text":"the question","out":"obs"},
			{"op":"prefill","s":"c","text":"${obs} and what the search left open"},
			{"op":"emit","text":"thought: ${thought} answer: "},
			{"op":"generate","s":"c","max_tokens":48,"temperature":0.7,"seed":12},
			{"op":"remove","s":"c"}
		]}`, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := map[bool]string{}
			for _, spec := range []bool{false, true} {
				clk := simclock.New()
				target := model.New(model.Llama13B())
				cfg := core.Config{Models: map[string]*model.Model{
					"llama-13b": target,
					"draft":     model.New(model.AlignedDraft(target, 0.85)),
				}, DefaultModel: "llama-13b"}
				if spec {
					cfg.Spec = &core.SpecConfig{Draft: "draft"}
				}
				k := core.New(clk, cfg)
				RegisterTools(k)
				p, err := runScript(t, k, clk, tc.js)
				clk.Shutdown()
				if err != nil {
					t.Fatalf("spec=%v: %v", spec, err)
				}
				out[spec] = p.Output()
				if st := k.Stats(); st.PredCalls != tc.preds || (st.Sched.SpecRounds > 0) != spec {
					t.Errorf("spec=%v: %d preds, %d spec rounds; want %d, a prefill or one decode run each",
						spec, st.PredCalls, st.Sched.SpecRounds, tc.preds)
				}
			}
			if out[false] == "" || out[true] != out[false] {
				t.Errorf("outputs differ: %q without speculation, %q with", out[false], out[true])
			}
		})
	}
}

// scriptRun is what a script left behind: its output, the text and
// virtual instant of every streamed token, the GPU positions executed and
// GPU iterations run, the pred tokens billed, and the GPU positions
// executed when the probe tool ran.
type scriptRun struct {
	out      string
	streamed []core.ProcEvent
	executed int64
	steps    int64
	billed   int64
	probed   int64
}

// runCounted runs js alone on a fresh kernel that offers the tool
// "probe", which records the GPU positions executed so far.
func runCounted(t *testing.T, js string) scriptRun {
	t.Helper()
	clk, k := newKernel()
	defer clk.Shutdown()
	var r scriptRun
	k.RegisterTool("probe", core.Tool{Fn: func(string) (string, error) {
		r.probed = k.Stats().Sched.ExecutedTokens
		return "", nil
	}})
	p, err := runScript(t, k, clk, js)
	if err != nil {
		t.Fatalf("script failed: %v", err)
	}
	st := k.Stats()
	r.out, r.executed, r.steps, r.billed = p.Output(), st.Sched.ExecutedTokens, st.Sched.Steps, st.PredTokens
	sub := p.Subscribe(0)
	for e, ok := sub.Next(nil); ok; e, ok = sub.Next(nil) {
		if e.Kind == core.EventToken {
			r.streamed = append(r.streamed, core.ProcEvent{Text: e.Text, At: e.At})
		}
	}
	return r
}

// TestTerminalGenerateSkipsLastPosition: a generate whose session the next
// statement removes executes exactly one GPU position fewer, and bills one
// pred token fewer, than the same script with a fork after the generate,
// whose one-position pred commits the last token; an emit between the
// generate and the remove changes nothing, since the token stays pending
// until a pred reads past it. All three stream the same tokens at the
// same instants and output the same text.
func TestTerminalGenerateSkipsLastPosition(t *testing.T) {
	const head = `{"steps":[
		{"op":"anon","s":"a"},
		{"op":"prefill","s":"a","text":"a terminal generation ends its session"},
		{"op":"generate","s":"a","max_tokens":16,"temperature":0.7,"seed":7,"out":"x"},`
	terminal := runCounted(t, head+`{"op":"remove","s":"a"},{"op":"emit","text":"${x}"}]}`)
	emitted := runCounted(t, head+`{"op":"emit","text":"${x}"},{"op":"remove","s":"a"}]}`)
	kept := runCounted(t, head+`{"op":"fork","s":"f","from":"a"},{"op":"remove","s":"f"},{"op":"emit","text":"${x}"},{"op":"remove","s":"a"}]}`)
	if len(kept.streamed) != 16 {
		t.Fatalf("streamed %d tokens; the comparison needs a run that reaches max_tokens", len(kept.streamed))
	}
	if terminal.executed != kept.executed-1 || terminal.billed != kept.billed-1 {
		t.Errorf("terminal generate executed %d positions and billed %d, with a fork after it %d and %d; want one fewer",
			terminal.executed, terminal.billed, kept.executed, kept.billed)
	}
	if emitted.executed != terminal.executed || emitted.billed != terminal.billed {
		t.Errorf("with an emit before the remove: executed %d positions and billed %d, without %d and %d; want the same",
			emitted.executed, emitted.billed, terminal.executed, terminal.billed)
	}
	for _, r := range []scriptRun{emitted, kept} {
		if !reflect.DeepEqual(terminal.streamed, r.streamed) {
			t.Errorf("streamed %v, in a reference script %v", terminal.streamed, r.streamed)
		}
		if terminal.out == "" || terminal.out != r.out {
			t.Errorf("output %q, in a reference script %q", terminal.out, r.out)
		}
	}
}

// TestGenerateLeavesItsLastTokenPending puts each kind of statement after
// a generate that reaches max_tokens and compares the script with the
// same one that forks the session right after the generate — a fork
// commits a pending token with a one-position pred, so there the
// generated tokens all reach the file as every generate's did before a
// run left its last token pending. The generate computes one GPU position
// fewer, which the probe after it sees, and the scripts output and stream
// the same. A remove discards the token, after a call or another
// session's remove too: one position and one GPU iteration fewer in all.
// A prefill carries it in its prompt slice: as many positions, one
// iteration fewer. A second generate carries it as
// the first position of its run, which costs the iteration the fork's
// commit does. A generate that ends on EOS commits every token: the fork
// then commits nothing and both scripts execute alike.
func TestGenerateLeavesItsLastTokenPending(t *testing.T) {
	const prompt = `{"op":"anon","s":"a"},{"op":"anon","s":"b"},
		{"op":"prefill","s":"a","text":"which statement follows decides"},{"op":"prefill","s":"b","text":"another session"},`
	const full = `{"op":"generate","s":"a","max_tokens":12,"temperature":0.7,"seed":3,"out":"x"},`
	const eos = `{"op":"generate","s":"a","max_tokens":400,"temperature":0.7,"seed":3,"out":"x"},`
	const fork = `{"op":"fork","s":"f","from":"a"},{"op":"remove","s":"f"},`
	const probe = `{"op":"call","tool":"probe"},`
	const tail = `{"op":"remove","s":"b"},{"op":"remove","s":"a"}`
	for _, tc := range []struct {
		name, generate, next string
		// fewer positions before the probe and in all, and fewer GPU
		// iterations in all
		probed, executed, steps int64
	}{
		{"call", full, `{"op":"call","tool":"weather","text":"paris"},{"op":"emit","text":"${x}"},` + tail, 1, 1, 1},
		{"call+prefill", full, `{"op":"call","tool":"search","text":"q","out":"o"},{"op":"prefill","s":"a","text":"${o}"},{"op":"emit","text":"${x}"},` + tail, 1, 0, 1},
		{"prefill", full, `{"op":"prefill","s":"a","text":"more context"},{"op":"emit","text":"${x}"},` + tail, 1, 0, 1},
		{"generate", full, `{"op":"generate","s":"a","max_tokens":4},{"op":"emit","text":"${x}"},` + tail, 1, 0, 0},
		{"emit+remove", full, `{"op":"emit","text":"${x}"},` + tail, 1, 1, 1},
		{"remove", full, `{"op":"remove","s":"a"},{"op":"remove","s":"b"},{"op":"emit","text":"${x}"}`, 1, 1, 1},
		{"remove other", full, `{"op":"remove","s":"b"},{"op":"remove","s":"a"},{"op":"emit","text":"${x}"}`, 1, 1, 1},
		{"eos", eos, `{"op":"remove","s":"a"},{"op":"remove","s":"b"},{"op":"emit","text":"${x}"}`, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runCounted(t, `{"steps":[`+prompt+tc.generate+probe+tc.next+`]}`)
			ref := runCounted(t, `{"steps":[`+prompt+tc.generate+fork+probe+tc.next+`]}`)
			if got.out == "" || got.out != ref.out {
				t.Fatalf("output %q, with a fork after the generate %q", got.out, ref.out)
			}
			if !reflect.DeepEqual(got.streamed, ref.streamed) {
				t.Errorf("streamed %v, with a fork after the generate %v", got.streamed, ref.streamed)
			}
			if n := len(got.streamed); tc.generate == full && n < 12 || tc.generate == eos && n >= 400 {
				t.Fatalf("streamed %d tokens; the case needs a run that ends as it is named", n)
			}
			if got.probed != ref.probed-tc.probed {
				t.Errorf("the generate executed %d positions, with a fork after it %d; want %d fewer", got.probed, ref.probed, tc.probed)
			}
			if got.executed != ref.executed-tc.executed || got.billed != ref.billed-tc.executed {
				t.Errorf("executed %d positions and billed %d, with a fork after the generate %d and %d; want %d fewer",
					got.executed, got.billed, ref.executed, ref.billed, tc.executed)
			}
			if got.steps != ref.steps-tc.steps {
				t.Errorf("ran %d GPU iterations, with a fork after the generate %d; want %d fewer", got.steps, ref.steps, tc.steps)
			}
		})
	}
}

// TestNamedFileHoldsTheWholeContext: a session whose generate left its
// last token pending commits it when the program links the file, unlocks
// it, and, for a named file, when the program ends, also on a failed
// step. So the next program to open the file finds the prompt and every
// generated token: the linked file's length, and its content.
func TestNamedFileHoldsTheWholeContext(t *testing.T) {
	const steps = `{"op":"prefill","s":"c","text":"a context another program reads"},
		{"op":"generate","s":"c","max_tokens":8,"temperature":0.7,"seed":3},`
	clk, k := newKernel()
	defer clk.Shutdown()
	if _, err := runScript(t, k, clk, `{"steps":[{"op":"anon","s":"c"},`+steps+`{"op":"link","s":"c","path":"ref"}]}`); err != nil {
		t.Fatalf("reference script failed: %v", err)
	}
	open := func(path string) (int, model.CtxHash) {
		f, err := k.FS().Open(path, "wire", false)
		if err != nil {
			t.Fatal(err)
		}
		return f.Len(), f.Tail()
	}
	refLen, refTail := open("ref")
	if want := len(k.Tokenizer().Encode("a context another program reads")) + 8; refLen != want {
		t.Fatalf("linked file holds %d tokens, want %d: the prompt and all 8", refLen, want)
	}
	// probe records the file's content while the program still runs.
	var probedLen int
	var probedTail model.CtxHash
	k.RegisterTool("probe", core.Tool{Fn: func(path string) (string, error) {
		probedLen, probedTail = open(path)
		return "", nil
	}})
	for _, tc := range []struct {
		name, script string
		fails, probe bool
	}{
		{"end", `{"op":"create","s":"c","path":"end"},` + steps + `{"op":"emit","text":"done"}`, false, false},
		{"unlock", `{"op":"create","s":"c","path":"unlock"},{"op":"lock","s":"c"},` + steps +
			`{"op":"unlock","s":"c"},{"op":"call","tool":"probe","text":"unlock"}`, false, true},
		{"failed step", `{"op":"create","s":"c","path":"failed step"},` + steps + `{"op":"call","tool":"missing"}`, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runScript(t, k, clk, `{"steps":[`+tc.script+`]}`)
			if (err != nil) != tc.fails {
				t.Fatalf("script error %v, want failure %v", err, tc.fails)
			}
			n, tail := open(tc.name)
			if tc.probe {
				n, tail = probedLen, probedTail
			}
			if n != refLen || tail != refTail {
				t.Errorf("named file holds %d tokens, want the linked file's %d and its content", n, refLen)
			}
		})
	}
}
