package lip

import (
	"fmt"

	"repro/internal/token"
)

// SpecOptions configure speculative decoding.
type SpecOptions struct {
	// K bounds the tokens drafted per round.
	K int
	// MaxTokens bounds the total generated tokens.
	MaxTokens int
}

// SpecResult reports a speculative generation.
type SpecResult struct {
	Tokens []token.ID
	// Rounds is the number of draft/verify iterations.
	Rounds int
	// Drafted and Accepted count proposed draft tokens and how many the
	// target verified; Accepted/Drafted is the acceptance rate.
	Drafted  int
	Accepted int
	// TargetSteps counts pred calls against the target model (the paper's
	// §4.1: verification inspects the distributions of a multi-token pred).
	TargetSteps int
}

// AcceptanceRate returns Accepted/Drafted.
func (r SpecResult) AcceptanceRate() float64 {
	if r.Drafted == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(r.Drafted)
}

// SpeculativeGenerate implements greedy speculative decoding as a LIP, the
// way §4.1 sketches: the draft model proposes up to K tokens as one cheap
// decode run, then a single target pred over the proposal verifies them by
// inspecting the returned distributions. Accepted prefixes cost one target
// step instead of one per token; the first rejected position is repaired
// with the target's own choice and the draft context is rolled back via
// Truncate — KV-file surgery no prompt-serving API can express.
//
// target must be a prefilled session on the target model; draft must be a
// session on the draft model whose context holds the same tokens. A token
// pending on the target is committed first; the draft's rides into its
// next draft run, so lengths are read with Len.
func SpeculativeGenerate(target, draft *Session, opts SpecOptions) (SpecResult, error) {
	if opts.K <= 0 || opts.MaxTokens <= 0 {
		return SpecResult{}, fmt.Errorf("lip: speculative K and MaxTokens must be positive")
	}
	if err := target.commit(); err != nil {
		return SpecResult{}, err
	}
	if !target.ready || !draft.Primed() {
		return SpecResult{}, ErrNoDist
	}
	var res SpecResult
	for len(res.Tokens) < opts.MaxTokens {
		res.Rounds++
		// Draft phase: the cheap model's greedy run of up to K tokens,
		// never past the budget. Its last token stays pending on the
		// draft until the next round's run or a rollback.
		drafted, err := Generate(draft, GenOptions{MaxTokens: min(opts.K, opts.MaxTokens-len(res.Tokens))})
		if err != nil {
			return res, err
		}
		proposal := drafted.Tokens
		if len(proposal) == 0 {
			// Draft wants to stop; let the target decide the next token.
			t := target.last.Greedy()
			if t == token.EOS {
				break
			}
			res.Tokens = append(res.Tokens, t)
			if _, err := target.Step(t); err != nil {
				return res, err
			}
			res.TargetSteps++
			if _, err := draft.Step(t); err != nil {
				return res, err
			}
			continue
		}
		res.Drafted += len(proposal)

		// Verify phase: one target pred over the whole proposal. The
		// distribution *before* proposal[i] is target.last for i==0 and
		// dists[i-1] afterwards; proposal[i] is accepted if it matches
		// the target's greedy choice there.
		base := target.kv.Len()
		pos := make([]int, len(proposal))
		for i := range pos {
			pos[i] = base + i
		}
		prev := target.last
		dists, err := target.ctx.PredModel(target.model, target.kv, proposal, pos)
		if err != nil {
			return res, err
		}
		res.TargetSteps++

		accepted := 0
		for i, p := range proposal {
			if prev.Greedy() != p {
				break
			}
			accepted++
			prev = dists[i]
		}
		res.Accepted += accepted
		res.Tokens = append(res.Tokens, proposal[:accepted]...)

		if accepted < len(proposal) {
			// Roll the target KV back to the accepted prefix, then commit
			// the target's own choice at the first divergence.
			if err := target.kv.Truncate(base + accepted); err != nil {
				return res, err
			}
			correction := prev.Greedy()
			// Roll the draft back to match the target context.
			if err := draft.Rollback(draft.Len() - (len(proposal) - accepted)); err != nil {
				return res, err
			}
			if correction == token.EOS {
				target.last = prev
				target.ready = true
				break
			}
			res.Tokens = append(res.Tokens, correction)
			if _, err := target.Step(correction); err != nil {
				return res, err
			}
			res.TargetSteps++
			if _, err := draft.Step(correction); err != nil {
				return res, err
			}
		} else {
			// Whole proposal accepted; target.last becomes the last dist.
			target.last = dists[len(dists)-1]
			target.ready = true
		}
	}
	return res, nil
}
