package lip

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/token"
)

// generateLoop is the autoregressive loop of the paper's Figure 2 written
// token by token: sample from the pending distribution, and pred the
// token with a one-token Step only to read the distribution after it,
// until EOS, the constraint completes, or MaxTokens. So the loop never
// Steps a final token the run ends on without EOS: it leaves it pending,
// and the session's next pred carries it. A token pending when the loop
// starts is committed first, to read the distribution after it. It was
// Generate's body before a generation became one decode run, and it stays
// as the reference Generate is held to.
func generateLoop(s *Session, opts GenOptions) (GenResult, error) {
	if opts.MaxTokens <= 0 {
		return GenResult{}, fmt.Errorf("lip: MaxTokens must be positive")
	}
	if !s.Primed() {
		return GenResult{}, ErrNoDist
	}
	if err := s.commit(); err != nil {
		return GenResult{}, err
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = &Sampler{} // greedy
	}
	var res GenResult
	prev := token.PAD
	for len(res.Tokens) < opts.MaxTokens {
		d := s.last
		if opts.Transform != nil {
			d = opts.Transform(d, prev)
		}
		if opts.Constraint != nil {
			if allowed := opts.Constraint.Allowed(); allowed != nil {
				d = d.Mask(allowed)
				if len(d.Candidates()) == 0 {
					return res, ErrConstraintStuck
				}
			}
		}
		tok := sampler.Sample(d)
		if tok == token.EOS {
			res.HitEOS = true
			break
		}
		if opts.Constraint != nil {
			if err := opts.Constraint.Accept(tok); err != nil {
				return res, err
			}
		}
		res.Tokens = append(res.Tokens, tok)
		prev = tok
		if opts.Stream != nil {
			opts.Stream(tok)
		}
		if opts.Constraint != nil && opts.Constraint.Done() {
			res.ConstraintDone = true
			break
		}
		if len(res.Tokens) == opts.MaxTokens {
			break
		}
		if _, err := s.Step(tok); err != nil {
			return res, err
		}
	}
	if n := len(res.Tokens); n > 0 && !res.HitEOS {
		s.pending, s.held = res.Tokens[n-1], true
	}
	if opts.Constraint == nil {
		res.ConstraintDone = res.HitEOS || len(res.Tokens) == opts.MaxTokens
	} else if !res.ConstraintDone {
		res.ConstraintDone = opts.Constraint.Done()
	}
	return res, nil
}

// failing is a constraint that allows anything for its first after tokens
// and then fails: stuck on an empty allowed set, or — with refuse set —
// refusing the token drawn.
type failing struct {
	after, n int
	refuse   bool
}

var errRefused = errors.New("test: token refused")

func (c *failing) Allowed() []token.ID {
	if !c.refuse && c.n >= c.after {
		return []token.ID{}
	}
	return nil
}

func (c *failing) Accept(token.ID) error {
	if c.refuse && c.n >= c.after {
		return errRefused
	}
	c.n++
	return nil
}

func (c *failing) Done() bool { return false }

// constraints are the option sets a generation is held to the loop under.
var constraints = []string{"none", "regex", "json", "suppress-eos", "stuck", "refuse"}

// speculating makes a harness kernel speculate decode runs on "draft".
func speculating(c *core.Config) { c.Spec = &core.SpecConfig{Draft: "draft"} }

// streamedToken is one streamed token and the virtual instant it streamed.
type streamedToken struct {
	tok token.ID
	at  time.Duration
}

// genCase is one generation: a prompt, a sampler (temp 0 is greedy), one
// of constraints, a length bound, on a plain or a speculating kernel, and
// terminal — nothing reads past it — or followed by a prefill, which
// carries a pending final token.
type genCase struct {
	prompt     string
	temp       float64
	seed       uint64
	constraint string
	max        int
	spec       bool
	terminal   bool
}

// followingPrefill is the text a non-terminal case prefills after its
// generation.
const followingPrefill = " and then a prefill"

// genOutcome is everything a generation and the prefill after it leave
// that the loop pins: the result and error, the sampler's draws, the KV
// file, the pending token and distribution, and every streamed token with
// its instant; and the pred tokens both calls billed.
type genOutcome struct {
	res     GenResult
	err     error
	draws   uint64
	kvLen   int
	kvTail  model.CtxHash
	pending token.ID
	held    bool
	last    []model.TokenProb
	ready   bool
	stream  []streamedToken
	billed  int64
}

// run generates c with gen on a fresh kernel that edits adjust.
func (c genCase) run(t *testing.T, gen func(*Session, GenOptions) (GenResult, error), edits ...func(*core.Config)) (genOutcome, *core.Kernel) {
	t.Helper()
	edit := func(cfg *core.Config) {
		if c.spec {
			speculating(cfg)
		}
		for _, e := range edits {
			e(cfg)
		}
	}
	var out genOutcome
	k := harnessWith(t, edit, func(ctx *core.Ctx) error {
		kv, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		s := NewSession(ctx, kv)
		if _, err := s.Prefill(c.prompt); err != nil {
			return err
		}
		smp := &Sampler{Temperature: c.temp, TopP: 0.9, Seed: c.seed}
		opts := GenOptions{MaxTokens: c.max, Sampler: smp, Stream: func(tok token.ID) {
			out.stream = append(out.stream, streamedToken{tok, ctx.Clock().Now()})
		}}
		vocab := ctx.Kernel().Tokenizer().Vocab()
		switch c.constraint {
		case "regex":
			digits := strings.Split("0123456789", "")
			rc, err := grammar.NewRegexConstraint(strings.Repeat(`\d`, 100), grammar.NewLexicon(vocab, digits))
			if err != nil {
				return err
			}
			opts.Constraint, opts.Transform = rc, SuppressEOS
		case "json":
			opts.Constraint = grammar.NewJSONConstraint(grammar.JSONLexicon(vocab, "key", "value"))
		case "suppress-eos":
			opts.Transform = SuppressEOS
		case "stuck":
			opts.Constraint = &failing{after: 40}
		case "refuse":
			opts.Constraint = &failing{after: 40, refuse: true}
		}
		before := ctx.Kernel().Stats().PredTokens
		out.res, out.err = gen(s, opts)
		out.draws = smp.draws
		if !c.terminal && out.err == nil {
			if _, err := s.Prefill(followingPrefill); err != nil {
				return err
			}
		}
		out.billed = ctx.Kernel().Stats().PredTokens - before
		out.kvLen, out.kvTail = s.kv.Len(), s.kv.Tail()
		out.pending, out.held = s.Pending()
		d, ready := s.Last()
		out.last, out.ready = d.Candidates(), ready
		return nil
	})
	return out, k
}

// equalsLoop runs c through Generate and generateLoop and fails on any
// difference the loop pins; streamed instants are compared on the plain
// kernel only, since speculation moves them. It returns Generate's
// outcome.
func (c genCase) equalsLoop(t *testing.T) genOutcome {
	t.Helper()
	got, _ := c.run(t, Generate)
	want, _ := c.run(t, generateLoop)
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("result %+v, loop %+v", got.res, want.res)
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Errorf("error %v, loop %v", got.err, want.err)
	}
	if got.draws != want.draws {
		t.Errorf("%d sampler draws, loop %d", got.draws, want.draws)
	}
	if got.billed != want.billed {
		t.Errorf("billed %d pred tokens, loop %d", got.billed, want.billed)
	}
	if got.kvLen != want.kvLen || got.kvTail != want.kvTail {
		t.Errorf("KV file %d tokens @%x, loop %d @%x", got.kvLen, got.kvTail, want.kvLen, want.kvTail)
	}
	if got.pending != want.pending || got.held != want.held {
		t.Errorf("pending token %v (held %v), loop %v (held %v)", got.pending, got.held, want.pending, want.held)
	}
	if got.ready != want.ready || !reflect.DeepEqual(got.last, want.last) {
		t.Errorf("pending distribution (ready %v) differs from the loop's (ready %v)", got.ready, want.ready)
	}
	if len(got.stream) != len(want.stream) {
		t.Fatalf("streamed %d tokens, loop %d", len(got.stream), len(want.stream))
	}
	for i := range want.stream {
		g, w := got.stream[i], want.stream[i]
		if g.tok != w.tok || (!c.spec && g.at != w.at) {
			t.Fatalf("streamed token %d: %+v, loop %+v", i, g, w)
		}
	}
	return got
}

// end names the way a generation of c ended.
func (c genCase) end(got genOutcome) string {
	switch res := got.res; {
	case errors.Is(got.err, ErrConstraintStuck):
		return "stuck"
	case errors.Is(got.err, errRefused):
		return "refused"
	case got.err != nil:
		return "error"
	case res.HitEOS:
		return "eos"
	case c.constraint != "none" && c.constraint != "suppress-eos" && res.ConstraintDone:
		return "constraint done"
	case c.max > decodeChunk:
		return "max tokens past a chunk"
	}
	return "max tokens"
}

// genGrid calls fn with every case of the grid, all terminal: greedy and
// sampled runs, every kind of option, lengths on both sides of a chunk
// boundary, and a plain and a speculating kernel.
func genGrid(t *testing.T, fn func(t *testing.T, c genCase)) {
	for _, temp := range []float64{0, 0.7} {
		name := "greedy"
		if temp > 0 {
			name = "sampled"
		}
		for _, constraint := range constraints {
			for _, max := range []int{1, 63, 64, 65, 130} {
				for _, spec := range []bool{false, true} {
					kernel := "plain"
					if spec {
						kernel = "spec"
					}
					c := genCase{"a prompt whose continuation we compute two ways", temp, 7, constraint, max, spec, true}
					t.Run(fmt.Sprintf("%s/%s/max%d/%s", name, constraint, max, kernel), func(t *testing.T) { fn(t, c) })
				}
			}
		}
	}
}

// TestGenerateEqualsLoop holds Generate's decode run to the per-token loop
// over the whole grid, each case terminal and followed by a prefill, and
// compares the pred tokens both calls billed; the grid must reach every
// way a run ends.
func TestGenerateEqualsLoop(t *testing.T) {
	ends := map[string]bool{}
	genGrid(t, func(t *testing.T, c genCase) {
		for _, terminal := range []bool{false, true} {
			c.terminal = terminal
			t.Run(fmt.Sprintf("terminal=%v", terminal), func(t *testing.T) {
				ends[c.end(c.equalsLoop(t))] = true
			})
		}
	})
	for _, end := range []string{"stuck", "refused", "eos", "constraint done", "max tokens", "max tokens past a chunk"} {
		if !ends[end] {
			t.Errorf("no case ended by %s", end)
		}
	}
}

// TestTerminalSkipsOnlyTheLastCommit runs every case of the grid twice as
// a terminal run, once committing a pending token afterwards
// (Session.File) as every run did before a run left its final token
// pending. A run that reached MaxTokens or completed its constraint
// leaves its last token out of the KV file and bills one pred token
// fewer, with the same tokens streamed at the same instants; a run ended
// by EOS or an error is unchanged in everything the loop pins.
func TestTerminalSkipsOnlyTheLastCommit(t *testing.T) {
	ends := map[string]bool{}
	commit := func(s *Session, opts GenOptions) (GenResult, error) {
		res, err := Generate(s, opts)
		if err == nil {
			_, err = s.File()
		}
		return res, err
	}
	genGrid(t, func(t *testing.T, c genCase) {
		kept, _ := c.run(t, commit)
		got, _ := c.run(t, Generate)
		end := c.end(kept)
		ends[end] = true
		if c.end(got) != end || !reflect.DeepEqual(got.res, kept.res) || fmt.Sprint(got.err) != fmt.Sprint(kept.err) || got.draws != kept.draws {
			t.Fatalf("terminal run %+v (%v), committed %+v (%v)", got.res, got.err, kept.res, kept.err)
		}
		skipped := 0
		if strings.HasPrefix(end, "max tokens") || end == "constraint done" {
			skipped = 1
		}
		if !reflect.DeepEqual(got.stream, kept.stream) {
			t.Fatalf("%s: terminal run streamed %v, committed %v", end, got.stream, kept.stream)
		}
		if got.kvLen != kept.kvLen-skipped || got.billed != kept.billed-int64(skipped) || got.held != (skipped == 1) {
			t.Errorf("%s: terminal run left %d tokens (pending %v) and billed %d, committed %d and %d; want %d fewer",
				end, got.kvLen, got.held, got.billed, kept.kvLen, kept.billed, skipped)
		}
		if skipped == 0 && (got.kvTail != kept.kvTail || !reflect.DeepEqual(got.last, kept.last)) {
			t.Errorf("%s: terminal run left a different KV file or pending distribution", end)
		}
	})
	for _, end := range []string{"stuck", "refused", "eos", "constraint done", "max tokens", "max tokens past a chunk"} {
		if !ends[end] {
			t.Errorf("no case ended by %s", end)
		}
	}
}

// TestConstrainedRunThenPrefillKeepsEveryToken generates until a
// constraint completes and then prefills more text. The prefill carries
// the run's final token, so the KV file holds the prompt, every generated
// token and the new text — the file one prefill of all three builds — and
// the next generation matches the per-token loop's over that file.
func TestConstrainedRunThenPrefillKeepsEveryToken(t *testing.T) {
	var got, want GenResult
	var gotLen, wantLen int
	var gotTail, wantTail model.CtxHash
	harness(t, func(ctx *core.Ctx) error {
		prompt := ctx.Tokenize("recite:")
		script := ctx.Tokenize(" a constraint that completes after these words")
		more := ctx.Tokenize(" and then some more text")
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.PrefillTokens(prompt); err != nil {
			return err
		}
		res, err := Generate(s, GenOptions{MaxTokens: 2 * len(script), Constraint: &fixedConstraint{script: script}})
		if err != nil {
			return err
		}
		if !res.ConstraintDone || !reflect.DeepEqual(res.Tokens, script) {
			t.Fatalf("generated %v (done %v), want the script", res.Tokens, res.ConstraintDone)
		}
		if _, err := s.PrefillTokens(more); err != nil {
			return err
		}
		rkv, _ := ctx.KvAnon()
		ref := NewSession(ctx, rkv)
		if _, err := ref.PrefillTokens(append(append(append([]token.ID{}, prompt...), script...), more...)); err != nil {
			return err
		}
		gotLen, gotTail, wantLen, wantTail = kv.Len(), kv.Tail(), rkv.Len(), rkv.Tail()
		opts := func() GenOptions { return GenOptions{MaxTokens: 24, Sampler: &Sampler{Temperature: 0.7, Seed: 5}} }
		if got, err = Generate(s, opts()); err != nil {
			return err
		}
		want, err = generateLoop(ref, opts())
		return err
	})
	if gotLen != wantLen || gotTail != wantTail {
		t.Errorf("KV file %d tokens @%x, one prefill of the whole context %d @%x", gotLen, gotTail, wantLen, wantTail)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("next generation %v, loop over the whole context %v", got.Tokens, want.Tokens)
	}
}

// TestCarriedTokenStreamsAfterItsPosition runs two sampled generations
// back to back alone on the GPU. The first leaves its final token pending;
// the second carries it as its first position, so its first token streams
// when that position retires — one decode step after the first run
// returned, never earlier — and every later one a step after the last. A
// speculating kernel, which proposes the carried position as itself,
// speculates both runs and leaves the same tokens and KV file, its first
// token streaming no earlier than the carried position's decode step.
func TestCarriedTokenStreamsAfterItsPosition(t *testing.T) {
	type outcome struct {
		first, second GenResult
		tail          model.CtxHash
	}
	pair := func(t *testing.T, spec bool) (outcome, *core.Kernel) {
		var out outcome
		k := harnessWith(t, func(c *core.Config) {
			if spec {
				speculating(c)
			}
		}, func(ctx *core.Ctx) error {
			kv, _ := ctx.KvAnon()
			s := NewSession(ctx, kv)
			if _, err := s.Prefill("two generations back to back"); err != nil {
				return err
			}
			base := kv.Len()
			opts := func(stream func(token.ID)) GenOptions {
				return GenOptions{MaxTokens: 8, Sampler: &Sampler{Temperature: 0.7, Seed: 11}, Transform: SuppressEOS, Stream: stream}
			}
			var err error
			if out.first, err = Generate(s, opts(nil)); err != nil {
				return err
			}
			if tok, held := s.Pending(); !held || tok != out.first.Tokens[7] || kv.Len() != base+7 || s.Len() != base+8 {
				t.Fatalf("after the first run: pending %v (held %v), KV %d tokens; want its last token pending beside %d",
					tok, held, kv.Len(), base+7)
			}
			start := ctx.Clock().Now()
			var streamed []streamedToken
			out.second, err = Generate(s, opts(func(tok token.ID) { streamed = append(streamed, streamedToken{tok, ctx.Clock().Now()}) }))
			if err != nil {
				return err
			}
			step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: 1}})
			for i, st := range streamed {
				if st.tok != out.second.Tokens[i] || st.at < start+step || !spec && st.at != start+time.Duration(i+1)*step {
					t.Errorf("token %d streamed %v at %v, want %v at %v (%d decode steps after the first run)",
						i, st.tok, st.at, out.second.Tokens[i], start+time.Duration(i+1)*step, i+1)
				}
			}
			if tok, held := s.Pending(); len(streamed) != 8 || !held || tok != out.second.Tokens[7] || kv.Len() != base+15 {
				t.Errorf("after the second run: %d streamed, pending %v (held %v), KV %d tokens; want 8, its last token and %d",
					len(streamed), tok, held, kv.Len(), base+15)
			}
			out.tail = kv.Tail()
			return nil
		})
		return out, k
	}
	plain, _ := pair(t, false)
	spec, k := pair(t, true)
	if !reflect.DeepEqual(spec, plain) {
		t.Errorf("speculating kernel left %+v, plain %+v", spec, plain)
	}
	if st := k.Scheduler().Stats(); st.SpecRounds == 0 || st.SpecAccepted == 0 || st.SpecAccepted > st.SpecDrafted {
		t.Errorf("%d rounds accepted %d of %d drafted, want some and no more", st.SpecRounds, st.SpecAccepted, st.SpecDrafted)
	}
}

// FuzzGenerateEqualsLoop is TestGenerateEqualsLoop over fuzzed prompts,
// seeds, temperatures, lengths, option sets and terminal or not.
func FuzzGenerateEqualsLoop(f *testing.F) {
	f.Add("a prompt whose continuation we compute two ways", uint64(7), 0.7, 65, uint8(0), false, false)
	f.Add("constrained", uint64(3), 0.0, 130, uint8(2), true, false)
	f.Add("", uint64(1), 1.5, 1, uint8(4), false, true)
	f.Add("terminal", uint64(5), 0.7, 65, uint8(3), true, true)
	f.Fuzz(func(t *testing.T, prompt string, seed uint64, temp float64, max int, constraint uint8, spec, terminal bool) {
		if len(prompt) > 256 || !(temp >= 0 && temp <= 2) {
			t.Skip()
		}
		max = 1 + (max%150+150)%150
		genCase{prompt, temp, seed, constraints[int(constraint)%len(constraints)], max, spec, terminal}.equalsLoop(t)
	})
}

// TestGenerateDecodeUnderSpecMatchesPlain runs greedy and seeded-sampled
// generations on a speculating kernel: the same tokens, sampler draws and
// KV file as without speculation, the executor ran draft/verify rounds,
// and it accepted some but never more than it drafted. Speculation needs
// no iteration-level priority policy: under fifo a decode run still
// advances one position per iteration, so the fifo cases speculate too.
func TestGenerateDecodeUnderSpecMatchesPlain(t *testing.T) {
	fifo := func(c *core.Config) { c.PriorityPolicy = sched.FIFO{} }
	for _, tc := range []struct {
		name  string
		temp  float64
		edits []func(*core.Config)
	}{
		{"greedy", 0, nil},
		{"sampled", 0.7, nil},
		{"fifo-greedy", 0, []func(*core.Config){fifo}},
		{"fifo-sampled", 0.7, []func(*core.Config){fifo}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := genCase{"speculative decoding must not change results", tc.temp, 7, "none", 48, false, true}
			plain, _ := c.run(t, Generate, tc.edits...)
			c.spec = true
			spec, k := c.run(t, Generate, tc.edits...)
			if !reflect.DeepEqual(spec.res, plain.res) || spec.err != nil {
				t.Fatalf("spec %+v (%v), plain %+v", spec.res, spec.err, plain.res)
			}
			if spec.draws != plain.draws || spec.kvLen != plain.kvLen || spec.kvTail != plain.kvTail {
				t.Errorf("spec drew %d and left %d KV tokens, plain %d and %d", spec.draws, spec.kvLen, plain.draws, plain.kvLen)
			}
			if len(plain.res.Tokens) < 8 {
				t.Fatalf("only %d tokens generated; the comparison needs a run", len(plain.res.Tokens))
			}
			st := k.Scheduler().Stats()
			if st.SpecRounds == 0 {
				t.Error("spec kernel ran no speculative rounds")
			}
			if st.SpecAccepted == 0 || st.SpecAccepted > st.SpecDrafted {
				t.Errorf("accepted %d of %d drafted, want some and no more", st.SpecAccepted, st.SpecDrafted)
			}
		})
	}
}

// TestConstrainedRunSpeculatesUnderItsMask speculates a generation whose
// constraint allows one token per position. The run's proposal applies
// the same mask to the draft's distribution, so the draft proposes the
// committed token everywhere and the executor accepts every drafted token,
// including where the draft does not echo the target.
func TestConstrainedRunSpeculatesUnderItsMask(t *testing.T) {
	var res GenResult
	var script []token.ID
	k := harnessWith(t, speculating, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill("recite:"); err != nil {
			return err
		}
		script = ctx.Tokenize(strings.Repeat("every drafted token is accepted under the mask ", 6))
		var err error
		res, err = Generate(s, GenOptions{
			MaxTokens:  len(script),
			Sampler:    &Sampler{Temperature: 0.7, Seed: 3},
			Constraint: &fixedConstraint{script: script},
			Transform:  SuppressEOS,
		})
		return err
	})
	if !reflect.DeepEqual(res.Tokens, script) {
		t.Fatalf("generated %d tokens off the script", len(res.Tokens))
	}
	if st := k.Scheduler().Stats(); st.SpecRounds == 0 || st.SpecAccepted != st.SpecDrafted {
		t.Errorf("%d rounds accepted %d of %d drafted tokens, want all", st.SpecRounds, st.SpecAccepted, st.SpecDrafted)
	}
}

// TestGenerateDecodeChunkedStreaming streams a generation of three
// decode chunks alone on the GPU: every token streams in order, one decode
// step after the last — inside a chunk as across a chunk boundary — and
// the first at the instant the prefill completed. The KV file then holds
// every token but the last, which is pending.
func TestGenerateDecodeChunkedStreaming(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill("stream this generation across chunks"); err != nil {
			return err
		}
		base, start := kv.Len(), ctx.Clock().Now()
		var streamed []streamedToken
		res, err := Generate(s, GenOptions{
			MaxTokens: 2*decodeChunk + 2,
			Transform: SuppressEOS,
			Stream:    func(tok token.ID) { streamed = append(streamed, streamedToken{tok, ctx.Clock().Now()}) },
		})
		if err != nil {
			return err
		}
		if len(streamed) != len(res.Tokens) || len(res.Tokens) != 2*decodeChunk+2 {
			t.Fatalf("streamed %d tokens, result has %d (want %d, three chunks)", len(streamed), len(res.Tokens), 2*decodeChunk+2)
		}
		step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: 1}})
		for i, st := range streamed {
			if st.tok != res.Tokens[i] {
				t.Fatalf("stream order broken at %d", i)
			}
			if want := start + time.Duration(i)*step; st.at != want {
				t.Errorf("token %d streamed at %v, want %v (%d decode steps after the prefill)", i, st.at, want, i)
			}
		}
		if kv.Len() != base+len(res.Tokens)-1 || s.Len() != base+len(res.Tokens) {
			t.Errorf("KV grew by %d and the context by %d, generated %d", kv.Len()-base, s.Len()-base, len(res.Tokens))
		}
		return nil
	})
}

// TestGenerateDecodeStreamSurvivesCrash crash-restarts the replica in the
// middle of a speculating sampled decode run. The executor discards the
// run's progress and re-executes it, so the progress count goes back; the
// stream still carries every token exactly once, in order.
func TestGenerateDecodeStreamSurvivesCrash(t *testing.T) {
	checks := 0
	var res GenResult
	var streamed []token.ID
	k := harnessWith(t, func(c *core.Config) {
		speculating(c)
		// One boundary check per iteration, on the one replica actor: the
		// prefill is the first iteration, so the eighth is mid-run.
		c.CrashCheck = func(int) bool { checks++; return checks == 8 }
	}, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill("a run the replica loses halfway"); err != nil {
			return err
		}
		var err error
		res, err = Generate(s, GenOptions{
			MaxTokens: 48,
			Sampler:   &Sampler{Temperature: 0.7, TopP: 0.9, Seed: 7},
			Stream:    func(tok token.ID) { streamed = append(streamed, tok) },
		})
		return err
	})
	st := k.Scheduler().Stats()
	if st.Crashes != 1 || st.LostTokens == 0 {
		t.Fatalf("crashes = %d, lost = %d; want one crash that discarded decode progress", st.Crashes, st.LostTokens)
	}
	if !reflect.DeepEqual(streamed, res.Tokens) {
		t.Fatalf("streamed %v, generated %v", streamed, res.Tokens)
	}
}

// TestGenerateDecodeErrorKeepsStreamed runs a sampled generation, whose
// constraint completes after 100 tokens, into a user quota that refuses
// its second decode chunk. By then the first chunk's retirements have
// streamed one token more than it committed; the result holds exactly
// those, as the per-token loop's holds every token it streamed, and like
// the loop's it does not report the constraint done.
func TestGenerateDecodeErrorKeepsStreamed(t *testing.T) {
	prompt := []token.ID{100, 101, 102, 103, 104, 105, 106, 107}
	var res GenResult
	var streamed []token.ID
	var err error
	harnessWith(t, func(c *core.Config) {
		c.UserQuotas = map[string]int64{"u": int64(len(prompt)) + decodeChunk + 2}
	}, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, perr := s.PrefillTokens(prompt); perr != nil {
			return perr
		}
		script := ctx.Tokenize(strings.Repeat("ten words that the constraint makes the run say again ", 10))
		res, err = Generate(s, GenOptions{
			MaxTokens:  2 * decodeChunk,
			Sampler:    &Sampler{Temperature: 0.7, TopP: 0.9, Seed: 7},
			Constraint: &fixedConstraint{script: script[:100]},
			Stream:     func(tok token.ID) { streamed = append(streamed, tok) },
		})
		return nil
	})
	if !errors.Is(err, core.ErrQuota) {
		t.Fatalf("err = %v, want the quota to refuse the second chunk", err)
	}
	if len(streamed) != decodeChunk+1 || !reflect.DeepEqual(streamed, res.Tokens) {
		t.Fatalf("streamed %d tokens, result holds %d; want %d of the same", len(streamed), len(res.Tokens), decodeChunk+1)
	}
	if res.ConstraintDone || res.HitEOS {
		t.Errorf("a failed run reports ConstraintDone %v, HitEOS %v", res.ConstraintDone, res.HitEOS)
	}
}

// TestGenerateDecodeValidation covers Generate's refusals, and a session
// on a named model, which decodes as a run like any other.
func TestGenerateDecodeValidation(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := Generate(s, GenOptions{MaxTokens: 5}); !errors.Is(err, ErrNoDist) {
			t.Errorf("before prefill: %v", err)
		}
		if _, err := Generate(s, GenOptions{}); err == nil {
			t.Error("MaxTokens 0 accepted")
		}
		if _, err := s.WithModel("draft").Prefill("p"); err != nil {
			return err
		}
		before := ctx.Kernel().Stats().PredCalls
		res, err := Generate(s, GenOptions{MaxTokens: 5, Transform: SuppressEOS})
		if err != nil || len(res.Tokens) != 5 {
			t.Errorf("draft-model session: %d tokens, %v", len(res.Tokens), err)
		}
		if n := ctx.Kernel().Stats().PredCalls - before; n != 1 {
			t.Errorf("draft-model session made %d preds, want one decode run", n)
		}
		return nil
	})
}
