package lip

import "fmt"

// PruneContext shrinks a session's context to its first keepHead tokens
// (the "attention sink" prefix) plus its last keepTail tokens, reusing the
// surviving KV tensors via KvExtract — the runtime context pruning of
// paper §4.2 (StreamingLLM-style). The session's KV file is replaced by
// the pruned one and the old file is removed; the resulting context is
// approximate (see kvfs.Entry), exactly as with real KV reuse under a
// changed attention pattern.
//
// The pending distribution is invalidated; callers re-prime it with the
// next Prefill or Step. PruneContext is a no-op when the context already
// fits.
func PruneContext(s *Session, keepHead, keepTail int) error {
	if keepHead < 0 || keepTail < 0 {
		return fmt.Errorf("lip: negative prune bounds")
	}
	n := s.kv.Len()
	if n <= keepHead+keepTail {
		return nil
	}
	indices := make([]int, 0, keepHead+keepTail)
	for i := 0; i < keepHead; i++ {
		indices = append(indices, i)
	}
	for i := n - keepTail; i < n; i++ {
		indices = append(indices, i)
	}
	pruned, err := s.ctx.KvExtract(s.kv, indices)
	if err != nil {
		return err
	}
	old := s.kv
	s.kv = pruned
	s.ready = false
	return old.Remove()
}

// StreamingGenerate is Generate with the KV context kept bounded: whenever
// the file holds window tokens it is pruned back to keepHead sinks plus
// the most recent window/2 tokens before the next token is committed. This
// lets a LIP generate indefinitely in constant KV memory — a strategy no
// prompt API exposes, and precisely the kind of application-specific
// optimization §4.2 argues for.
//
// Each window is one segment of Generate's decode run: the walk runs one
// token past the full file, that token is committed under the pruned
// (approximate) context — what a real pruning system computes too — and
// the walk goes on from there. A window's room counts the positions the
// run commits, a carried pending token among them.
//
//lint:allow testonly library surface: a §4 extension examples/streaming_test.go shows
func StreamingGenerate(s *Session, opts GenOptions, window, keepHead int) (GenResult, error) {
	if window <= keepHead+2 {
		return GenResult{}, fmt.Errorf("lip: window must exceed keepHead+2")
	}
	g, err := newDecoder(s, opts)
	if err != nil {
		return GenResult{}, err
	}
	room := window - s.kv.Len()
	for {
		if err := g.advance(max(room, 0)); err != nil || g.ended {
			return g.finish(err)
		}
		if err := PruneContext(s, keepHead, window/2); err != nil {
			return g.res, err
		}
		// A prune that left the file full still commits the token it was
		// made for.
		room = max(window-s.kv.Len(), 1)
	}
}
