package examples

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lip"
	"repro/internal/simclock"
)

// §2.3's answer to uncontrollable generation: because the LIP owns the
// sampling loop and sees full next-token distributions, it can mask them
// with arbitrary automata. This program forces the model to emit (1) a
// valid JSON object and (2) a string matching a custom regex — both as
// plain user code, no server modification.
func Example_constrained() {
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		p := k.Submit("dev", func(ctx *core.Ctx) error {
			vocab := ctx.Kernel().Tokenizer().Vocab()

			// 1. JSON-constrained generation. Seeding the constraint (and
			// the KV context) with "{" forces an object rather than any
			// JSON value — the program chooses, not the server.
			s, err := anon(ctx, "Produce the sensor reading as JSON: ")
			if err != nil {
				return err
			}
			defer s.Close()
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
			s2, err := anon(ctx, "The release tag is ")
			if err != nil {
				return err
			}
			defer s2.Close()
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
			return err
		}
		fmt.Fprint(out, p.Output())

		// Prove the JSON line really parses.
		var doc any
		jsonText, _, _ := strings.Cut(strings.TrimPrefix(p.Output(), "json: "), "\n")
		if err := json.Unmarshal([]byte(jsonText), &doc); err != nil {
			return fmt.Errorf("constrained output is not valid JSON: %v (%q)", err, jsonText)
		}
		fmt.Fprintf(out, "parsed JSON OK: %v\n", doc)
		return nil
	})
	// Output:
	// json: {"sensor":{" 010,4:-353301-trueunit7unit-]sensor3-null.74valuefalse 55.1:" : "4 75valuetruenull576:3:{true3unit[{[05unitunitunitnull79null:} {18sensor--sensor2 [-true[90trueunitunit]false9value[.null2value1415042:0.sensorfalse2,-}falsesensorfalsetrueunit]-{.null.value8unit4]57,8value[:3:.false0 6{4:-value[-sensorunit","truenull8-4{5}]{7 value0}:1{4 sensor:valuevalue4null-9{3null.0[false1}sensorunit2false9,46":false},   "]:19true..58" :0     }
	// version: v7.80.6
	// parsed JSON OK: map[]:19true..58:0 sensor:map[ 010,4:-353301-trueunit7unit-]sensor3-null.74valuefalse 55.1::4 75valuetruenull576:3:{true3unit[{[05unitunitunitnull79null:} {18sensor--sensor2 [-true[90trueunitunit]false9value[.null2value1415042:0.sensorfalse2,-}falsesensorfalsetrueunit]-{.null.value8unit4]57,8value[:3:.false0 6{4:-value[-sensorunit truenull8-4{5}]{7 value0}:1{4 sensor:valuevalue4null-9{3null.0[false1}sensorunit2false9,46:false]]
}
