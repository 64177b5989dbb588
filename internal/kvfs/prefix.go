package kvfs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/token"
)

// PrefixTree is a radix tree of cached KV prefixes built on AdoptPrefix,
// the one structure behind the Symphony kernel's prefix cache and the
// vLLM baseline's. Every prompt committed to it leaves a node at each
// chunk boundary, keyed by the rolling context hash of the tokens up to
// it, so a lookup walks boundary by boundary and stops at the first
// missing hash. Each node owns an anonymous admin file holding its whole
// prefix by page sharing: its last chunk is its own, the rest it shares
// with its ancestors.
//
// The tree is a cache: any node may go and the next prefill rebuilds it.
// DropRoots forgets whole prompt families; EvictUntil removes idle leaves
// least recently used first until a condition the caller chooses holds,
// which is the caller's policy. All methods are safe for concurrent use.
// Node files are pinned and unpinned only under the tree's lock, so a
// node file's Pins is the tree's own count of readers.
type PrefixTree struct {
	fs    *FS
	chunk int

	mu    sync.Mutex
	nodes map[model.CtxHash]*PrefixNode
	// seq numbers nodes in insertion order; uses is the logical clock
	// lastUse reads.
	seq, uses int64
}

// PrefixNode is one node of a PrefixTree: the cached prefix of depth
// tokens whose rolling context hash is tail.
type PrefixNode struct {
	tail, parent model.CtxHash // parent is zero at the first boundary
	depth        int
	file         *File
	// root is the prompt family: the Root of every file holding the prefix.
	root model.CtxHash
	// lastUse is the tree's logical time of the node's creation or latest
	// match; seq breaks ties.
	seq, lastUse int64
	// children counts direct extensions; only childless nodes are evicted.
	children int
}

// File returns the node's file, which holds the whole prefix.
func (n *PrefixNode) File() *File { return n.file }

// NewPrefixTree returns an empty tree over fs whose nodes sit every chunk
// tokens, rounded up to a page multiple so shares stay page-aligned.
func NewPrefixTree(fs *FS, chunk int) *PrefixTree {
	if pt := fs.cfg.PageTokens; chunk%pt != 0 {
		chunk += pt - chunk%pt
	}
	return &PrefixTree{fs: fs, chunk: chunk, nodes: make(map[model.CtxHash]*PrefixNode)}
}

// Chunk returns the boundary spacing in tokens.
func (t *PrefixTree) Chunk() int { return t.chunk }

// Len returns the number of nodes.
func (t *PrefixTree) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.nodes)
}

// Match walks the prompt's chunk boundaries and returns the deepest cached
// node, with its file pinned until the caller's Release, and its depth;
// (nil, 0) on a miss. A pinned node is never evicted, and one dropped
// meanwhile keeps its file until the last Release. The walk stops at
// len(toks)-1 tokens: the first answer token needs the last prompt
// token's logits, so a caller always prefills at least one token.
func (t *PrefixTree) Match(toks []token.ID) (*PrefixNode, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var best *PrefixNode
	h := model.CtxHash(0)
	for b := t.chunk; b <= len(toks)-1; b += t.chunk {
		h = model.HashContext(h, toks[b-t.chunk:b], b-t.chunk)
		n, ok := t.nodes[h]
		if !ok {
			break
		}
		best = n
	}
	if best == nil {
		return nil, 0
	}
	best.file.Pin()
	t.uses++
	best.lastUse = t.uses
	return best, best.depth
}

// Release drops the pin Match took. The last reader of a node that left
// the tree meanwhile removes its file.
func (t *PrefixTree) Release(n *PrefixNode) {
	t.mu.Lock()
	n.file.Unpin()
	last := n.file.Pins() == 0 && t.nodes[n.tail] != n
	t.mu.Unlock()
	if last {
		n.file.Remove()
	}
}

// Insert commits every chunk boundary of toks, the prompt src holds from
// position zero, as a node adopting src's prefix pages, and returns the
// files of the nodes it created. src must be GPU-resident. An adoption
// that fails stops the walk at the boundary reached.
func (t *PrefixTree) Insert(src *File, toks []token.ID) []*File {
	root := src.Root()
	var created []*File
	var failed *File
	t.mu.Lock()
	h, parent := model.CtxHash(0), model.CtxHash(0)
	for b := t.chunk; b <= len(toks); b += t.chunk {
		h = model.HashContext(h, toks[b-t.chunk:b], b-t.chunk)
		if _, ok := t.nodes[h]; ok {
			parent = h
			continue
		}
		nf := t.fs.CreateAnon(Admin)
		if err := nf.AdoptPrefix(src, b); err != nil {
			failed = nf
			break
		}
		t.seq++
		t.uses++
		t.nodes[h] = &PrefixNode{tail: h, parent: parent, depth: b, file: nf, root: root, seq: t.seq, lastUse: t.uses}
		if p, ok := t.nodes[parent]; ok {
			p.children++
		}
		created = append(created, nf)
		parent = h
	}
	t.mu.Unlock()
	// Removal may fire the release hook, so it runs without the lock.
	if failed != nil {
		failed.Remove()
	}
	return created
}

// EvictUntil removes idle leaves — childless nodes no reader holds pinned
// — least recently used first, until done reports true or none is left,
// and returns how many it removed. A parent whose last child goes joins
// the candidates. done is called first and after each removal, without
// the tree's lock, so it may read the tree or the file system.
func (t *PrefixTree) EvictUntil(done func() bool) int {
	if done() {
		return 0
	}
	t.mu.Lock()
	var idle []*PrefixNode
	for _, n := range t.nodes {
		if n.idle() {
			idle = append(idle, n)
		}
	}
	slices.SortFunc(idle, lruOrder)
	t.mu.Unlock()
	evicted := 0
	for len(idle) > 0 {
		n := idle[0]
		idle = idle[1:]
		t.mu.Lock()
		ok := t.nodes[n.tail] == n && n.idle()
		if ok {
			delete(t.nodes, n.tail)
			if p := t.nodes[n.parent]; p != nil {
				if p.children--; p.idle() {
					i, _ := slices.BinarySearchFunc(idle, p, lruOrder)
					idle = slices.Insert(idle, i, p)
				}
			}
		}
		t.mu.Unlock()
		if ok {
			n.file.Remove()
			evicted++
			if done() {
				break
			}
		}
	}
	return evicted
}

// idle reports whether n is a leaf no reader holds. Caller holds the
// tree's lock.
func (n *PrefixNode) idle() bool { return n.children == 0 && n.file.Pins() == 0 }

// lruOrder ranks nodes least recently used first.
func lruOrder(a, b *PrefixNode) int {
	return cmp.Or(cmp.Compare(a.lastUse, b.lastUse), cmp.Compare(a.seq, b.seq))
}

// bySeq ranks nodes in insertion order.
func bySeq(a, b *PrefixNode) int { return cmp.Compare(a.seq, b.seq) }

// DropRoots forgets every node of the given prompt families and returns
// how many it dropped. A family is whole subtrees — a child has its
// parent's root — so no node is left below a missing parent. Idle nodes'
// files are removed here; a pinned node's goes at its last Release.
func (t *PrefixTree) DropRoots(roots map[model.CtxHash]bool) int {
	t.mu.Lock()
	var victims []*PrefixNode
	for _, n := range t.nodes {
		if roots[n.root] {
			victims = append(victims, n)
		}
	}
	slices.SortFunc(victims, bySeq)
	var idle []*File
	for _, n := range victims {
		delete(t.nodes, n.tail)
		if n.file.Pins() == 0 {
			idle = append(idle, n.file)
		}
	}
	t.mu.Unlock()
	for _, f := range idle {
		f.Remove()
	}
	return len(victims)
}

// Verify checks the tree's links: every node below the first boundary has
// its parent in the tree, and every node's children count equals the
// nodes naming it as parent. It returns the first violation.
//
//lint:allow testonly the radix invariant tests check after every operation
func (t *PrefixTree) Verify() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	want := make(map[model.CtxHash]int)
	for _, n := range t.nodes {
		if _, ok := t.nodes[n.parent]; !ok && n.depth > t.chunk {
			return fmt.Errorf("kvfs: prefix node at depth %d has no parent", n.depth)
		}
		want[n.parent]++
	}
	for h, n := range t.nodes {
		if n.children != want[h] {
			return fmt.Errorf("kvfs: prefix node at depth %d counts %d children, %d in the tree", n.depth, n.children, want[h])
		}
	}
	return nil
}

// Files returns the node files in insertion order.
func (t *PrefixTree) Files() []*File {
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]*PrefixNode, 0, len(t.nodes))
	for _, n := range t.nodes {
		nodes = append(nodes, n)
	}
	slices.SortFunc(nodes, bySeq)
	files := make([]*File, len(nodes))
	for i, n := range nodes {
		files[i] = n.file
	}
	return files
}
