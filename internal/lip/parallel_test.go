package lip

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestParallelGenerateUnprimedBase runs ParallelGenerate on a base that
// has seen no token. A branch with an empty suffix would have no
// distribution to sample, so the call must return ErrNoDist before it
// spawns any thread: no fork, no pred. With every suffix non-empty each
// branch prefills its own and generates.
func TestParallelGenerateUnprimedBase(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		base := NewSession(ctx, kv)
		before := ctx.Kernel().Stats()
		if _, err := ParallelGenerate(base, []string{" a", ""}, GenOptions{MaxTokens: 2}); !errors.Is(err, ErrNoDist) {
			t.Errorf("empty suffix on an unprimed base: err = %v, want ErrNoDist", err)
		}
		after := ctx.Kernel().Stats()
		if after.KVCalls != before.KVCalls || after.PredCalls != before.PredCalls {
			t.Errorf("refused call ran branches: kv calls %d -> %d, pred calls %d -> %d",
				before.KVCalls, after.KVCalls, before.PredCalls, after.PredCalls)
		}
		branches, err := ParallelGenerate(base, []string{" a", " b"}, GenOptions{MaxTokens: 2})
		if err != nil {
			return err
		}
		for _, b := range branches {
			if b.Err != nil || len(b.Result.Tokens) == 0 {
				t.Errorf("branch %d: %d tokens, err %v", b.Index, len(b.Result.Tokens), b.Err)
			}
		}
		return nil
	})
}
