package kvfs

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/token"
)

// refPrefix is the reference model's view of one cached prefix.
type refPrefix struct {
	toks         []token.ID
	seq, lastUse int64
	pins         int
}

// prefixRef is the reference for FuzzPrefixTree: the cached prefixes as
// whole token slices, keyed by their printed tokens, with the tree's
// logical clock mirrored.
type prefixRef struct {
	chunk     int
	m         map[string]*refPrefix
	seq, uses int64
}

func keyOf(toks []token.ID) string { return fmt.Sprint(toks) }

// insert mirrors PrefixTree.Insert.
func (r *prefixRef) insert(toks []token.ID) {
	for b := r.chunk; b <= len(toks); b += r.chunk {
		if _, ok := r.m[keyOf(toks[:b])]; ok {
			continue
		}
		r.seq++
		r.uses++
		r.m[keyOf(toks[:b])] = &refPrefix{toks: slices.Clone(toks[:b]), seq: r.seq, lastUse: r.uses}
	}
}

// deepest is the naive deepest match: the longest cached prefix of query
// no longer than len(query)-1, found by comparing whole slices.
func (r *prefixRef) deepest(query []token.ID) *refPrefix {
	var best *refPrefix
	for _, p := range r.m {
		if len(p.toks) <= len(query)-1 && slices.Equal(p.toks, query[:len(p.toks)]) &&
			(best == nil || len(p.toks) > len(best.toks)) {
			best = p
		}
	}
	return best
}

// childless reports whether no cached prefix extends p by one chunk.
func (r *prefixRef) childless(p *refPrefix) bool {
	for _, q := range r.m {
		if len(q.toks) == len(p.toks)+r.chunk && slices.Equal(q.toks[:len(p.toks)], p.toks) {
			return false
		}
	}
	return true
}

// idleLeaves returns the childless, unpinned prefixes, least recently
// used first.
func (r *prefixRef) idleLeaves() []*refPrefix {
	var out []*refPrefix
	for _, p := range r.m {
		if p.pins == 0 && r.childless(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].lastUse != out[j].lastUse {
			return out[i].lastUse < out[j].lastUse
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// treeKeys returns the tree's node contents as reference keys.
func treeKeys(t *PrefixTree) map[string]*File {
	out := make(map[string]*File)
	for _, f := range t.Files() {
		var toks []token.ID
		for _, e := range f.Entries() {
			toks = append(toks, e.Tok)
		}
		out[keyOf(toks)] = f
	}
	return out
}

// fuzzTokens decodes one token stream from the fuzz input: a cut point
// into a base prompt (sharing its prefix) plus fresh tokens from a small
// alphabet, so radix structure arises naturally.
func fuzzTokens(data []byte, i *int, base []token.ID) []token.ID {
	next := func() byte {
		if *i >= len(data) {
			return 0
		}
		b := data[*i]
		*i++
		return b
	}
	cut := 0
	if len(base) > 0 {
		cut = int(next()) % (len(base) + 1)
	}
	toks := append([]token.ID(nil), base[:cut]...)
	for n := 1 + int(next())%13; n > 0; n-- {
		toks = append(toks, token.ID(1+int(next())%7))
	}
	return toks
}

// FuzzPrefixTree drives random insert, match (held or released at once),
// release, evict-until and drop-by-root operations against a reference of
// whole token prefixes. After every operation the tree holds exactly the
// reference's prefixes and its links verify; every match is as deep as the
// naive deepest match; and every eviction takes the least recently used
// idle leaf — childless and unpinned — of the moment.
func FuzzPrefixTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3})
	f.Add([]byte{0, 12, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6, 4, 2, 2, 2, 2, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 4
		fs := NewFS(Config{PageTokens: chunk, GPUBytes: 1 << 20, BytesPerToken: 1})
		tree := NewPrefixTree(fs, chunk)
		ref := &prefixRef{chunk: chunk, m: make(map[string]*refPrefix)}
		type hold struct {
			n   *PrefixNode
			key string
			p   *refPrefix
		}
		var held []hold
		var base []token.ID

		i := 0
		for step := 0; i < len(data) && step < 64; step++ {
			op, arg := int(data[i])%5, 0
			i++
			if i < len(data) {
				arg = int(data[i])
				i++
			}
			switch op {
			case 0: // a prefill commits its prompt
				toks := fuzzTokens(data, &i, base)
				src := fs.CreateAnon("u")
				pos := make([]int, len(toks))
				for j := range pos {
					pos[j] = j
				}
				if _, err := src.Append(toks, pos); err != nil {
					t.Fatal(err)
				}
				created := tree.Insert(src, toks)
				before := len(ref.m)
				ref.insert(toks)
				if len(created) != len(ref.m)-before {
					t.Fatalf("step %d: insert created %d nodes, reference %d", step, len(created), len(ref.m)-before)
				}
				src.Remove()
				base = toks
			case 1: // a match, held or released at once
				query := fuzzTokens(data, &i, base)
				want := ref.deepest(query)
				n, depth := tree.Match(query)
				switch {
				case want == nil && n != nil:
					t.Fatalf("step %d: matched depth %d of %v, reference has none", step, depth, query)
				case want == nil:
				case n == nil || depth != len(want.toks):
					t.Fatalf("step %d: match depth %d, naive deepest %d (query %v)", step, depth, len(want.toks), query)
				default:
					if got := n.File().Len(); got != depth {
						t.Fatalf("step %d: node file holds %d tokens at depth %d", step, got, depth)
					}
					ref.uses++
					want.lastUse = ref.uses
					if arg%2 == 0 {
						tree.Release(n)
					} else {
						want.pins++
						held = append(held, hold{n, keyOf(want.toks), want})
					}
				}
			case 2: // a reader releases its hold
				if len(held) == 0 {
					break
				}
				h := held[arg%len(held)]
				held = slices.Delete(held, arg%len(held), arg%len(held)+1)
				h.p.pins--
				tree.Release(h.n)
				_, cached := ref.m[h.key]
				if dropped := !cached || ref.m[h.key] != h.p; dropped && h.p.pins == 0 && !h.n.File().Removed() {
					t.Fatalf("step %d: dropped node's file outlived its last reader", step)
				}
			case 3: // evict until the tree is k nodes smaller
				target := tree.Len() - (1 + arg%4)
				keys := treeKeys(tree)
				observed := 0
				// done runs after every removal: exactly the least recently
				// used idle leaf of the reference must be gone.
				observe := func() {
					now := treeKeys(tree)
					for k := range keys {
						if _, ok := now[k]; ok {
							continue
						}
						idle := ref.idleLeaves()
						if p := ref.m[k]; len(idle) == 0 || p != idle[0] {
							t.Fatalf("step %d: evicted %s, not the least recently used idle leaf", step, k)
						}
						delete(ref.m, k)
						observed++
					}
					if len(now) < len(keys)-1 {
						t.Fatalf("step %d: %d nodes removed between two checks", step, len(keys)-len(now))
					}
					keys = now
				}
				n := tree.EvictUntil(func() bool {
					observe()
					return tree.Len() <= target
				})
				observe()
				if n != observed {
					t.Fatalf("step %d: reported %d evictions, observed %d", step, n, observed)
				}
				if tree.Len() > target && len(ref.idleLeaves()) > 0 {
					t.Fatalf("step %d: stopped at %d nodes (target %d) with idle leaves left", step, tree.Len(), target)
				}
			case 4: // a family's home crashed
				if len(base) == 0 {
					break
				}
				lead := base[0]
				dropped := tree.DropRoots(map[model.CtxHash]bool{model.CtxHash(0).Extend(lead, 0): true})
				want := 0
				for k, p := range ref.m {
					if p.toks[0] == lead {
						delete(ref.m, k)
						want++
					}
				}
				if dropped != want {
					t.Fatalf("step %d: dropped %d nodes, reference %d", step, dropped, want)
				}
			}

			if err := tree.Verify(); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
			keys := treeKeys(tree)
			if len(keys) != len(ref.m) {
				t.Fatalf("step %d (op %d): tree holds %d prefixes, reference %d", step, op, len(keys), len(ref.m))
			}
			for k := range ref.m {
				if _, ok := keys[k]; !ok {
					t.Fatalf("step %d (op %d): reference prefix %s missing from the tree", step, op, k)
				}
			}
			for _, h := range held {
				if h.n.File().Removed() {
					t.Fatalf("step %d (op %d): a held node's file was removed", step, op)
				}
			}
		}
	})
}
