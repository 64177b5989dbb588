// Constrained shows §2.3's answer to uncontrollable generation: because
// the LIP owns the sampling loop and sees full next-token distributions,
// it can mask them with arbitrary automata. This example forces the model
// to emit (1) a valid JSON object and (2) a string matching a custom
// regex — both as plain user code, no server modification.
//
// Run with: go run ./examples/constrained
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lip"
	"repro/internal/model"
	"repro/internal/simclock"
)

func main() {
	clk := simclock.New()
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})

	clk.Go("client", func() {
		p := kernel.Submit("dev", func(ctx *core.Ctx) error {
			vocab := ctx.Kernel().Tokenizer().Vocab()

			// 1. JSON-constrained generation. Seeding the constraint (and
			// the KV context) with "{" forces an object rather than any
			// JSON value — the program chooses, not the server.
			kv, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer kv.Remove()
			s := lip.NewSession(ctx, kv)
			if _, err := s.Prefill("Produce the sensor reading as JSON: "); err != nil {
				return err
			}
			constraint := grammar.NewJSONConstraint(grammar.JSONLexicon(vocab, "sensor", "value", "unit"))
			forced := `{"sensor":`
			for _, t := range ctx.Tokenize(forced) {
				if err := constraint.Accept(t); err != nil {
					return err
				}
				if _, err := s.Step(t); err != nil {
					return err
				}
			}
			jsonRes, err := lip.Generate(s, lip.GenOptions{
				MaxTokens:  400,
				Sampler:    &lip.Sampler{Temperature: 0.9, Seed: 7},
				Constraint: constraint,
			})
			if err != nil {
				return err
			}
			if !jsonRes.ConstraintDone {
				return fmt.Errorf("JSON constraint incomplete after budget")
			}
			ctx.Emit("json: " + forced + ctx.Detokenize(jsonRes.Tokens) + "\n")

			// 2. Regex-constrained generation: a version string.
			kv2, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer kv2.Remove()
			s2 := lip.NewSession(ctx, kv2)
			if _, err := s2.Prefill("The release tag is "); err != nil {
				return err
			}
			digits := []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", ".", "v"}
			verConstraint, err := grammar.NewRegexConstraint(`v\d\.\d\d?\.\d\d?`, grammar.NewLexicon(vocab, digits))
			if err != nil {
				return err
			}
			verRes, err := lip.Generate(s2, lip.GenOptions{
				MaxTokens:  16,
				Sampler:    &lip.Sampler{Temperature: 1.0, Seed: 9},
				Constraint: verConstraint,
			})
			if err != nil {
				return err
			}
			if !verRes.ConstraintDone {
				return fmt.Errorf("version constraint incomplete")
			}
			ctx.Emit("version: " + ctx.Detokenize(verRes.Tokens) + "\n")
			return nil
		})
		if err := p.Wait(); err != nil {
			log.Fatalf("LIP failed: %v", err)
		}
		fmt.Print(p.Output())

		// Prove the JSON line really parses.
		var doc any
		out := p.Output()
		var jsonText string
		for i := 0; i < len(out); i++ {
			if out[i] == '\n' {
				jsonText = out[len("json: "):i]
				break
			}
		}
		if err := json.Unmarshal([]byte(jsonText), &doc); err != nil {
			log.Fatalf("constrained output is not valid JSON: %v (%q)", err, jsonText)
		}
		fmt.Printf("parsed JSON OK: %v\n", doc)
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
