package experiments

import (
	"fmt"
	"regexp"
	"time"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/token"
)

// ConstrainedConfig parameterizes experiment E3 (§2.3): producing output
// that must match a format. A LIP masks the token distribution with a
// regex matcher and succeeds in one generation; a prompt-serving client can
// only sample and retry, because the serving API exposes no hook into the
// sampling loop (and shipping the ~200 KB distribution per token to the
// client is impractical — §2.3).
type ConstrainedConfig struct {
	Pattern string
	Trials  int
	Retries int // client-side attempts before giving up
	MaxToks int
	Temp    float64
}

// DefaultConstrained returns the E3 configuration: a phone-number format.
func DefaultConstrained() ConstrainedConfig {
	return ConstrainedConfig{
		Pattern: `\d\d\d-\d\d\d\d`,
		Trials:  10,
		Retries: 25,
		MaxToks: 24,
		Temp:    0.8,
	}
}

// ConstrainedPoint is one system's aggregate over all trials.
type ConstrainedPoint struct {
	System    string
	Trials    int
	Successes int
	AvgToks   float64 // tokens generated per trial (all attempts)
	AvgTime   time.Duration
}

// RunConstrained runs E3 for Symphony (grammar-masked decoding in a LIP,
// one generation per trial) and a retry-loop client against the same
// model: sample, validate locally, retry. The retry client runs directly
// against a kernel (network omitted; the retries dominate regardless)
// with the server's fixed sampler.
func RunConstrained(cfg ConstrainedConfig) []ConstrainedPoint {
	return []ConstrainedPoint{
		runConstrainedCell(cfg, SystemSymphony, 1, true),
		runConstrainedCell(cfg, SystemVLLM+"+retry", cfg.Retries, false),
	}
}

func constrainedLexicon(v *token.Vocab) *grammar.Lexicon {
	words := []string{"-"}
	for d := 0; d <= 9; d++ {
		words = append(words, fmt.Sprint(d))
	}
	return grammar.NewLexicon(v, words)
}

// runConstrainedCell gives each trial up to attempts generations, masked
// by the pattern or free-running, and counts the trials whose output the
// standard library matches against the whole pattern.
func runConstrainedCell(cfg ConstrainedConfig, system string, attempts int, masked bool) ConstrainedPoint {
	clk := simclock.New()
	tok := token.NewTokenizer(token.NewVocab())
	k := newKernel(clk, func(kc *core.Config) {
		kc.Tokenizer = tok
	})
	pt := ConstrainedPoint{System: system, Trials: cfg.Trials}
	match := regexp.MustCompile("^(?s:" + cfg.Pattern + ")$")
	var totalToks int64
	var totalTime time.Duration
	drive(clk, func() {
		for trial := 0; trial < cfg.Trials; trial++ {
			start := clk.Now()
			success := false
			for attempt := 0; attempt < attempts && !success; attempt++ {
				p := k.Submit("fmt", func(ctx *core.Ctx) error {
					f, err := ctx.KvAnon()
					if err != nil {
						return err
					}
					defer f.Remove()
					s := lip.NewSession(ctx, f)
					if _, err := s.Prefill(fmt.Sprintf("extract the phone number %d:", trial)); err != nil {
						return err
					}
					opts := lip.GenOptions{
						MaxTokens: cfg.MaxToks,
						Sampler:   &lip.Sampler{Temperature: cfg.Temp, Seed: uint64(trial*1000 + attempt)},
					}
					if masked {
						opts.Sampler.Seed = uint64(trial)
						opts.Constraint, err = grammar.NewRegexConstraint(cfg.Pattern, constrainedLexicon(tok.Vocab()))
						if err != nil {
							return err
						}
					}
					res, err := lip.Generate(s, opts)
					if err != nil {
						return err
					}
					ctx.EmitTokens(res.Tokens)
					if masked && !res.ConstraintDone {
						return fmt.Errorf("constraint incomplete")
					}
					return nil
				})
				err := p.Wait()
				out := p.Output()
				totalToks += int64(len(tok.Encode(out)))
				success = err == nil && match.MatchString(out)
			}
			totalTime += clk.Now() - start
			if success {
				pt.Successes++
			}
		}
	})
	pt.AvgToks = float64(totalToks) / float64(cfg.Trials)
	pt.AvgTime = totalTime / time.Duration(cfg.Trials)
	return pt
}

// ConstrainedTable renders E3.
func ConstrainedTable(points []ConstrainedPoint) metrics.Table {
	t := metrics.Table{
		Title:   "E3 (§2.3): format-constrained output — grammar-masked LIP vs client retry",
		Headers: []string{"system", "success", "trials", "avg-tokens", "avg-time"},
	}
	for _, p := range points {
		t.AddRow(p.System, p.Successes, p.Trials, p.AvgToks, p.AvgTime)
	}
	return t
}
