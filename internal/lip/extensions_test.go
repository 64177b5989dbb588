package lip

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/model"
	"repro/internal/token"
)

func TestSuppressEOSTransform(t *testing.T) {
	m := model.New(model.Llama13B())
	// Find a context whose distribution contains EOS.
	var d model.Dist
	found := false
	for i := 0; i < 200 && !found; i++ {
		d = m.Next(model.CtxHash(i))
		for _, c := range d.Candidates() {
			if c.Token == token.EOS {
				found = true
			}
		}
	}
	if !found {
		t.Skip("no EOS candidate found in probe range")
	}
	out := SuppressEOS(d, token.PAD)
	for _, c := range out.Candidates() {
		if c.Token == token.EOS {
			t.Fatal("EOS survived suppression")
		}
	}
	if len(out.Candidates()) != len(d.Candidates())-1 {
		t.Fatalf("candidate count %d -> %d", len(d.Candidates()), len(out.Candidates()))
	}
	// Pass-through when EOS absent.
	clean := SuppressEOS(out, token.PAD)
	if len(clean.Candidates()) != len(out.Candidates()) {
		t.Fatal("suppression altered an EOS-free distribution")
	}
}

func TestPruneContextBoundsKV(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill(strings.Repeat("context filler words here ", 30)); err != nil {
			return err
		}
		before := kv.Len()
		if err := PruneContext(s, 4, 16); err != nil {
			return err
		}
		after := s.kv.Len()
		if after != 20 {
			t.Errorf("pruned length = %d, want 20", after)
		}
		if after >= before {
			t.Errorf("prune did not shrink: %d -> %d", before, after)
		}
		if !s.kv.Approx() {
			t.Error("pruned context not marked approximate")
		}
		// Head tokens survive with original positions.
		es := s.kv.Entries()
		if es[0].Pos != 0 || es[3].Pos != 3 {
			t.Errorf("head entries wrong: %+v", es[:4])
		}
		// Generation continues fine on the pruned context.
		if _, err := s.Prefill("and continue"); err != nil {
			return err
		}
		if _, err := Generate(s, GenOptions{MaxTokens: 4}); err != nil {
			return err
		}
		return s.Close()
	})
}

func TestPruneContextNoopWhenSmall(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		s.Prefill("short")
		n := kv.Len()
		if err := PruneContext(s, 8, 8); err != nil {
			return err
		}
		if s.kv != kv || kv.Len() != n {
			t.Error("no-op prune replaced the file")
		}
		if _, ok := s.Last(); !ok {
			t.Error("no-op prune invalidated the pending dist")
		}
		return nil
	})
}

func TestStreamingGenerateConstantMemory(t *testing.T) {
	k := harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill("stream forever from this prompt"); err != nil {
			return err
		}
		// A first run leaves its last token pending; the streaming run
		// carries it into its first window.
		if _, err := Generate(s, GenOptions{MaxTokens: 8, Transform: SuppressEOS}); err != nil {
			return err
		}
		maxSeen := 0
		res, err := StreamingGenerate(s, GenOptions{
			MaxTokens: 200,
			Stream: func(token.ID) {
				if l := s.kv.Len(); l > maxSeen {
					maxSeen = l
				}
			},
		}, 64, 4)
		if err != nil {
			return err
		}
		if len(res.Tokens) != 200 {
			t.Errorf("generated %d tokens", len(res.Tokens))
		}
		// Window 64 plus one in-flight commit bounds the context.
		if maxSeen > 66 {
			t.Errorf("KV grew to %d despite window 64", maxSeen)
		}
		return s.Close()
	})
	if got := k.Stats().FS.GPUPages; got != 0 {
		t.Fatalf("streaming leaked %d pages", got)
	}
}

// TestStreamingGenerateKeepsItsOptions runs a regex-constrained
// StreamingGenerate across several prunes: the output matches the
// pattern, the constraint reports done, and the sampler drew once per
// token it emitted.
func TestStreamingGenerateKeepsItsOptions(t *testing.T) {
	const digits = 40
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill("the serial number reads"); err != nil {
			return err
		}
		lex := grammar.NewLexicon(ctx.Kernel().Tokenizer().Vocab(), strings.Split("0123456789", ""))
		rc, err := grammar.NewRegexConstraint(strings.Repeat(`\d`, digits), lex)
		if err != nil {
			return err
		}
		smp := &Sampler{Temperature: 1, Seed: 5}
		res, err := StreamingGenerate(s, GenOptions{MaxTokens: 100, Sampler: smp, Constraint: rc}, 16, 2)
		if err != nil {
			return err
		}
		if text := ctx.Detokenize(res.Tokens); !regexp.MustCompile(fmt.Sprintf(`^\d{%d}$`, digits)).MatchString(text) {
			t.Errorf("output %q does not match the pattern", text)
		}
		if !res.ConstraintDone {
			t.Error("constraint not done")
		}
		if smp.draws != uint64(len(res.Tokens)) {
			t.Errorf("%d sampler draws for %d tokens", smp.draws, len(res.Tokens))
		}
		if n := s.kv.Len(); n > 16 {
			t.Errorf("KV holds %d tokens, window 16", n)
		}
		return s.Close()
	})
}
