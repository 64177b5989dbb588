package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/trace"
)

// Ctx is the per-thread system-call interface handed to a LIP. All methods
// must be called from the thread's own goroutine (each Spawn gets its own
// Ctx).
type Ctx struct {
	p   *Process
	tid int

	// tracked holds the private KV files this thread created; the kernel
	// offloads them to host memory while the thread waits on external I/O
	// (paper §4.3) and restores them lazily on the next Pred.
	tracked []*kvfs.File
}

// Clock exposes the virtual clock (LIPs use it for Sleep-style pacing).
func (c *Ctx) Clock() *simclock.Clock { return c.p.k.clk }

// PID returns the calling process's ID.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) PID() int { return c.p.pid }

// User returns the process's user.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) User() string { return c.p.user }

// Kernel returns the kernel. Exposed for observability helpers; LIPs are
// expected to use the system calls below.
func (c *Ctx) Kernel() *Kernel { return c.p.k }

// Sleep parks the thread for d of virtual time.
func (c *Ctx) Sleep(d time.Duration) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	return c.p.k.clk.Sleep(d)
}

// Tokenize converts text to token IDs.
func (c *Ctx) Tokenize(s string) []token.ID { return c.p.k.tok.Encode(s) }

// Detokenize converts token IDs back to text.
func (c *Ctx) Detokenize(ids []token.ID) string { return c.p.k.tok.Decode(ids) }

// Emit appends text to the process output stream and publishes it as an
// emit event to process subscribers. Write and publish happen under one
// lock so the event order always matches the output order, even across
// threads.
func (c *Ctx) Emit(s string) {
	c.p.mu.Lock()
	c.p.out.WriteString(s)
	//lint:allow locksafepublish publish is deliberately under p.mu so event order matches output order; publish only buffers, never calls out
	c.p.publish(ProcEvent{Kind: EventEmit, Text: s})
	c.p.mu.Unlock()
}

// PublishToken streams an incremental generated-text chunk to process
// subscribers without touching the output stream; the generating
// statement emits (or stores) the full text when it completes.
func (c *Ctx) PublishToken(text string) {
	c.p.publish(ProcEvent{Kind: EventToken, Text: text})
}

// PublishStatement brackets an interpreter statement for observers: phase
// is "start" or "end", op and index identify the statement, and detail is
// optional free text.
func (c *Ctx) PublishStatement(index int, op, phase, detail string) {
	c.p.publish(ProcEvent{Kind: EventStatement, Op: op, Index: index, Phase: phase, Text: detail})
}

// EmitTokens decodes and emits token IDs.
func (c *Ctx) EmitTokens(ids []token.ID) { c.Emit(c.Detokenize(ids)) }

// --- KVFS system calls (§4.2) ---

func (c *Ctx) track(f *kvfs.File) *kvfs.File {
	c.tracked = append(c.tracked, f)
	p := c.p
	p.k.kvd.Track(f, p.pid, func(ev kvd.Event) {
		p.publish(ProcEvent{Kind: EventKVPressure, Phase: ev.Phase,
			Text: fmt.Sprintf("%d tokens", ev.Tokens)})
	})
	return f
}

// KvCreate makes a new named KV file owned by the calling user.
func (c *Ctx) KvCreate(path string, mode kvfs.Mode) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	c.p.k.kvCalls.Inc()
	f, err := c.p.k.fs.Create(path, c.p.user, mode)
	if err != nil {
		return nil, err
	}
	return c.track(f), nil
}

// KvAnon makes a new anonymous scratch KV file.
func (c *Ctx) KvAnon() (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	c.p.k.kvCalls.Inc()
	return c.track(c.p.k.fs.CreateAnon(c.p.user)), nil
}

// KvOpen opens a named KV file with the given intent, enforcing KVFS
// access control. Opened (shared) files are not tracked for I/O offload —
// other programs may be using them.
func (c *Ctx) KvOpen(path string, write bool) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.Open(path, c.p.user, write)
}

// KvFork clones f copy-on-write (Figure 2's kv_fork). Forking requires
// read access: the clone carries the original's content. A parent the
// memory daemon or a tool wait offloaded is restored transparently first
// (forking pins shared pages to the GPU tier), waiting at the space gate
// if the GPU tier is full.
func (c *Ctx) KvFork(f *kvfs.File) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	if err := f.CheckAccess(c.p.user, false); err != nil {
		return nil, err
	}
	k := c.p.k
	k.kvCalls.Inc()
	// Forking needs the parent on the GPU.
	cost := k.models[k.defMod].Config().Cost
	err := c.allocUnderPressure([]*kvfs.File{f}, func() error {
		return c.ensureResident(f, cost)
	})
	if err != nil {
		return nil, err
	}
	defer f.Unpin()
	k.kvd.Touch(f)
	child, err := f.Fork(c.p.user)
	if err != nil {
		return nil, err
	}
	return c.track(child), nil
}

// KvExtract builds a new file from selected token indices of f. The new
// file's page allocation reclaims cold files and, if the GPU tier is
// still full, waits at the space gate.
func (c *Ctx) KvExtract(f *kvfs.File, indices []int) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	k := c.p.k
	k.kvCalls.Inc()
	k.kvd.Touch(f)
	return c.build([]*kvfs.File{f}, len(indices), func() (*kvfs.File, error) {
		return f.Extract(c.p.user, indices)
	})
}

// KvMerge concatenates files into a new one. The new file's page
// allocation reclaims cold files and, if the GPU tier is still full,
// waits at the space gate.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) KvMerge(files ...*kvfs.File) (*kvfs.File, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	k := c.p.k
	k.kvCalls.Inc()
	need := 0
	for _, f := range files {
		k.kvd.Touch(f)
		need += f.Len()
	}
	return c.build(files, need, func() (*kvfs.File, error) {
		return k.fs.Merge(c.p.user, files...)
	})
}

// build makes a new file of need tokens from the sources' entries with
// op, the sources pinned while it runs, and tracks it.
func (c *Ctx) build(sources []*kvfs.File, need int, op func() (*kvfs.File, error)) (*kvfs.File, error) {
	var child *kvfs.File
	err := c.allocUnderPressure(sources, func() error {
		return c.p.k.withReclaim(need, func() (err error) {
			child, err = op()
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	unpin(sources)
	return c.track(child), nil
}

// KvLink names an anonymous file, making it durable across processes.
func (c *Ctx) KvLink(f *kvfs.File, path string) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.Link(f, path, c.p.user)
}

// KvRemove deletes a named file.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) KvRemove(path string) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.Remove(path, c.p.user)
}

// KvList lists named files with the given prefix.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) KvList(prefix string) []string {
	c.p.k.kvCalls.Inc()
	return c.p.k.fs.List(prefix)
}

// KvLock acquires f's advisory lock, parking until it is free. The lock
// identity is the process, so threads of one process share the lock. It
// returns kvfs.ErrLocked when the clock finds nothing else that could run,
// so the holder will never unlock.
func (c *Ctx) KvLock(f *kvfs.File) error {
	who := fmt.Sprintf("pid-%d", c.p.pid)
	for {
		if err := c.p.checkLive(); err != nil {
			return err
		}
		err := f.TryLock(who)
		if err == nil {
			return nil
		}
		if !errors.Is(err, kvfs.ErrLocked) || f.LockedBy() == who {
			return err // removed, or ours: locks are not recursive
		}
		// A shutdown surfaces as itself, a lock nobody can release as err.
		if released, werr := c.p.k.kvReleased.Wait(); werr != nil || !released {
			return cmp.Or(werr, err)
		}
	}
}

// KvUnlock releases f's advisory lock.
func (c *Ctx) KvUnlock(f *kvfs.File) error {
	return f.Unlock(fmt.Sprintf("pid-%d", c.p.pid))
}

// --- pred system call (§4.1) ---

// Pred is the model-computation system call against the default model:
//
//	pred(kv, tokens, positions) -> []dist
//
// It appends the given tokens (at their absolute positions) to the KV
// file, runs one batched forward pass, and returns the next-token
// distribution observed after each input token. The calling thread parks
// in the inference pool until the GPU step containing the call completes.
func (c *Ctx) Pred(f *kvfs.File, toks []token.ID, positions []int) ([]model.Dist, error) {
	return c.PredModel("", f, toks, positions)
}

// PredModel is Pred against a named model (e.g. a draft model for
// library-level speculative decoding, internal/lip).
func (c *Ctx) PredModel(modelName string, f *kvfs.File, toks []token.ID, positions []int) ([]model.Dist, error) {
	return c.pred(modelName, f, toks, positions, nil)
}

// DecodeRun is what PredDecode needs to know of a run beyond its tokens:
// how they were drawn, and who hears of their progress. The zero value is
// a greedy run nobody watches.
type DecodeRun struct {
	// Draw is the run's proposal rule: the token it draws for its i-th
	// position from d. Nil means greedy, d.Greedy(). Under speculation
	// position i is accepted where the draft echoes the default model's
	// distribution ahead of it, and elsewhere iff Draw(i, the draft's
	// distribution) == toks[i]. For a run whose tokens are its own draws
	// from the default model (lip.Generate, whose Draw applies the
	// position's transform and constraint mask before it draws) that is
	// exactly Draw(i, draft) == Draw(i, target). Tokens that are not draws
	// (the experiments' synthetic runs) are allowed and change only timing:
	// the echoed positions are accepted, the rest by chance.
	Draw func(i int, d model.Dist) token.ID
	// Progress, when non-nil, is told how many positions have retired at
	// the end of every GPU iteration that advanced the run. It runs on the
	// replica actor and must not block (see sched.Call.OnProgress); after a
	// replica crash-restart the count can go back.
	Progress func(retired int)
}

// PredDecode is PredModel for an autoregressive decode run: the tokens
// are generated sequentially, so the GPU advances the call one token per
// iteration instead of prefilling the whole run in one slice — unless the
// run is on the default model and the kernel was configured with
// speculative decoding (Config.Spec), in which case each iteration
// drafts a window on the cheap draft model and verifies it inside the
// call's own step, retiring the accepted run plus one correction token
// at a time. Billing is identical to Pred (every token charged once at
// submission); only the step-loop physics differ.
//
// The caller supplies the run's tokens up front — the simulated model
// and run.Draw are deterministic, so a generation's chain is known at
// submission (see lip.Generate); the GPU step only decides when the
// results exist. Only the final position's distribution is returned
// built; the others are unbuilt (model.Defer), equal under every Dist
// method.
func (c *Ctx) PredDecode(modelName string, f *kvfs.File, toks []token.ID, positions []int, run DecodeRun) ([]model.Dist, error) {
	return c.pred(modelName, f, toks, positions, &run)
}

// pred is the shared body of the pred-family system calls; run is nil
// except for a decode run.
func (c *Ctx) pred(modelName string, f *kvfs.File, toks []token.ID, positions []int, run *DecodeRun) ([]model.Dist, error) {
	decode := run != nil
	k := c.p.k
	m, err := k.Model(modelName)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("core: pred with no tokens")
	}
	if len(positions) != len(toks) {
		return nil, fmt.Errorf("core: pred with %d tokens, %d positions", len(toks), len(positions))
	}
	// pred mutates the file: enforce write access at the syscall boundary.
	if err := f.CheckAccess(c.p.user, true); err != nil {
		return nil, err
	}
	if err := c.p.chargeTokens(len(toks)); err != nil {
		return nil, err
	}
	k.chargeUser(c.p.user, len(toks))

	// A full GPU tier is met in three places, all after this Touch, so a
	// call that is making room is never itself the coldest candidate:
	// kvd.MaybeReclaim offloads cold files at the watermark and withReclaim
	// evicts on an allocation that still fails, both under the file's pin
	// and neither waiting; a call that still fails queues at the space
	// gate, whose holder swaps itself out and waits for space, breaking the
	// standoff of calls that each pin what the others need. Nothing waits
	// ahead of the allocation — the daemon runs inline on allocation
	// paths, so a wait would buy it no time and only age this file into
	// the next victim.
	k.kvd.Touch(f)

	// Radix prefix cache (prefixcache.go): a fresh prefill whose prompt
	// starts at position zero is matched against the kernel's tree of
	// committed prefixes. On a hit the deepest cached node is attached by
	// COW share — the node file pinned by the match so neither eviction
	// nor a tier move can take it mid-attach — and only the uncached
	// tail is appended and submitted. A disk-resident match is loaded
	// back first, billed like any other disk load.
	cacheable := k.pcache != nil && !decode && f.Len() == 0 &&
		identityPositions(positions) && len(toks) >= k.pcache.tree.Chunk()
	var pnode *kvfs.PrefixNode
	attached := 0
	if cacheable {
		if n, depth := k.pcache.match(toks); n != nil {
			k.kvd.Touch(n.File())
			if rerr := c.ensureResident(n.File(), m.Config().Cost); rerr != nil {
				// Cannot bring the cached prefix back: treat as a miss.
				k.pcache.release(n)
			} else {
				pnode, attached = n, depth
				defer k.pcache.release(n)
			}
		}
	}

	// The memory-acquisition phase of the call: with the file pinned (no
	// tier move takes a pinned file's pages down, and the migration engine
	// reads the pin as in flight), restore it if a tool wait or the daemon
	// offloaded it, then append the new tokens, reclaiming cold files on
	// allocation failure. The pin is retained — the GPU step still reads
	// these pages — and released after the scheduler returns.
	var tails []model.CtxHash
	// preTail is the context hash ahead of this call's tokens: the
	// speculation bitmap's first position draws from it.
	preTail := f.Tail()
	err = c.allocUnderPressure([]*kvfs.File{f}, func() error {
		k.kvd.MaybeReclaim()
		if err := c.ensureResident(f, m.Config().Cost); err != nil {
			return err
		}
		if attached > 0 && f.Len() == 0 {
			if aerr := f.AdoptPrefix(pnode.File(), attached); aerr != nil {
				// Share refused (the node file lost residency despite the
				// pin, or a restart raced): fall back to a full prefill.
				// The deferred release/unpin still run.
				attached = 0
			}
		}
		// The KV entries and their context hashes are fixed at
		// submission; the GPU step only determines *when* the results
		// exist.
		return k.withReclaim(len(toks)-attached, func() (err error) {
			tails, err = f.Append(toks[attached:], positions[attached:])
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	defer f.Unpin()
	k.predCalls.Inc()
	k.predTokens.Add(int64(len(toks)))

	if attached > 0 {
		// Hit ledger: the attached tokens were charged to the user (the
		// prompt was submitted in full) but are billed to the GPU as
		// saved, not executed — the scheduler only sees the tail.
		k.pcache.noteAttach(attached, time.Duration(attached)*m.Config().Cost.PerToken)
		c.p.publish(ProcEvent{Kind: EventKVShare, Phase: "attach",
			Text: fmt.Sprintf("%d of %d tokens", attached, len(toks))})
	}

	pstart := k.clk.Now()
	// The affinity key is the file's root KV hash, the one key of a prompt
	// family: forks of one conversation share it, and so does a prefill
	// that attached a cached prefix (AdoptPrefix shared the node's first
	// page), each of its decode steps, and the radix nodes themselves — so
	// cache-aware dispatch keeps all of them on the replica the prefix
	// directory homes the family at. The process's priority lane rides on
	// every call so urgency expressed at submission reaches the GPU
	// iteration loop.
	call := sched.Call{
		Model:    resolvedName(k, modelName),
		Tokens:   len(toks) - attached,
		Affinity: uint64(f.Root()),
		Priority: c.p.prio,
		Decode:   decode,
	}
	if decode {
		call.OnProgress = run.Progress
	}
	if decode && k.spec != nil && call.Model == k.defMod && len(toks) > 1 {
		// Precompute the acceptance bitmap from the deterministic model
		// pair, one rule for greedy and sampled runs: position i is
		// accepted iff the draft's proposal for it — the run's own draw,
		// applied to the draft's distribution ahead of position i — equals
		// toks[i]. For a greedy run that is the draft's argmax; for a
		// sampled one the coupled draw stands in for speculative sampling's
		// min(1, p/q) test. Where the draft echoes the target's own
		// distribution its proposal is the target's draw, so the position
		// is accepted with nothing built (see DecodeRun.Draw); elsewhere the
		// draft's distribution is read unbuilt, which a greedy draw answers
		// without building. The executor consults the bitmap round by round;
		// no randomness at execution time, so identically-seeded runs
		// speculate identically.
		draw := run.Draw
		if draw == nil {
			draw = func(_ int, d model.Dist) token.ID { return d.Greedy() }
		}
		draft := k.models[k.spec.Draft]
		accept := make([]bool, len(toks)-1)
		h := preTail
		for i := range accept {
			accept[i] = draft.Echoes(m, h) || draw(i, draft.Defer(h)) == toks[i]
			h = tails[i]
		}
		call.Spec = &sched.SpecCall{Draft: k.spec.Draft, Accept: accept}
	}
	// Keep scheduler preemption coherent with the memory daemon: a call
	// descheduled at an iteration boundary must not hold its KV file
	// pinned, or preempted state would be unevictable under pressure. On
	// resume the pin returns, and if the daemon offloaded the file
	// meanwhile the PCIe restore is charged to the resuming step. Runs on
	// the replica actor; withReclaim never blocks.
	cost := m.Config().Cost
	call.OnPreempt = func(preempted bool) time.Duration {
		if preempted {
			f.Unpin()
			return 0
		}
		f.Pin()
		if f.GPUResident() {
			return 0
		}
		// The same promote-and-bill path as ensureResident. Whatever
		// actually moved is charged even if the GPU filled before the rest
		// did — those pages are resident now and no later path would bill
		// them; what stays behind is the next pred's problem.
		_, d, _ := k.promote(f, kvfs.Host, cost)
		if !f.GPUResident() {
			// The daemon spilled part of the file down to disk while this
			// call sat preempted.
			_, ld, _ := k.promote(f, kvfs.Disk, cost)
			d += ld
		}
		return d
	}
	if k.mig != nil {
		// Migration-aware dispatch: the engine pins the call to the
		// family's current home in the prefix directory, moving the prefix
		// first (an interconnect page copy, charged here) when the home is
		// overloaded. Another call's pin on the file, beside this call's
		// own, marks it in flight: the engine then refuses to move it.
		k.mig.route(c, f, &call, m.Config().Cost)
	}
	if err := k.sch.SubmitCall(call); err != nil {
		return nil, err
	}
	k.tracer.Span(trace.Event{
		At: pstart, Dur: k.clk.Now() - pstart, PID: c.p.pid, TID: c.tid,
		Kind: trace.KindPred, Detail: fmt.Sprintf("%d tokens @%s", len(toks), resolvedName(k, modelName)),
	})

	if cacheable {
		// Commit the freshly committed prompt's chunk boundaries into the
		// radix tree while f is still pinned and GPU-resident.
		k.pcache.insert(f, toks)
	}

	// The attached prefix's per-token context hashes equal what appending
	// those tokens would have produced (AdoptPrefix shares exact KV), so
	// the caller still receives one distribution per submitted token —
	// built for the positions this call executed, unbuilt (model.Defer) for
	// the attached ones, which the GPU never computed, and for a decode
	// run's non-final positions, whose tokens its caller already drew.
	dists := make([]model.Dist, len(toks))
	h := model.CtxHash(0)
	for i := 0; i < attached; i++ {
		h = h.Extend(toks[i], i)
		dists[i] = m.Defer(h)
	}
	for i, th := range tails {
		if decode && i < len(tails)-1 {
			dists[attached+i] = m.Defer(th)
		} else {
			dists[attached+i] = m.Next(th)
		}
	}
	return dists, nil
}

// identityPositions reports whether positions is exactly 0..n-1 — the
// shape of a fresh full-prompt prefill, the only one the prefix cache
// matches (cached nodes are keyed by position-zero context hashes).
func identityPositions(positions []int) bool {
	for i, p := range positions {
		if p != i {
			return false
		}
	}
	return true
}

func resolvedName(k *Kernel, name string) string {
	if name == "" {
		return k.defMod
	}
	return name
}

// allocUnderPressure is the one place a full GPU tier makes a KV syscall
// wait. alloc is the call's memory-acquisition step, run with own pinned
// and reclaiming through withReclaim on a failed allocation; its first
// run is the whole call when memory suffices. On success own stay pinned
// for the caller to release; on failure they are released. Concurrent
// calls can still exhaust the GPU tier while each holds its own files
// pinned — nothing is evictable and everyone stalls — so a call whose
// alloc fails with ErrNoSpace breaks the hold-and-wait by
// self-preemption (vLLM-style swap), one call at a time in the order
// their allocations failed: behind the space gate, it first evicts the
// prefix cache's idle leaves until a GPU page is freed, retrying alloc
// after each such gain; with none left to evict it gives back the
// residency of own, parks until KVFS releases something, and runs alloc
// again. A call queued at the gate holds no pin, so the one retrying may
// evict it. ErrNoSpace reaches the caller only when the clock finds
// nothing else that could run, so nothing will ever be released.
func (c *Ctx) allocUnderPressure(own []*kvfs.File, alloc func() error) error {
	try := func() error {
		for _, f := range own {
			f.Pin()
		}
		err := alloc()
		if err != nil {
			unpin(own)
		}
		return err
	}
	k := c.p.k
	start := k.clk.Now()
	err := try()
	if !errors.Is(err, kvfs.ErrNoSpace) {
		return err
	}
	queued := !k.spaceGate.TryAcquire(1)
	if queued {
		if gerr := k.spaceGate.Acquire(1); gerr != nil {
			return gerr
		}
	}
	defer k.spaceGate.Release(1)
	// The first turn retries only if another actor may have run since the
	// failure: the call queued at the gate, or its try slept a partial
	// restore's bill. Otherwise the retry would repeat the failure.
	for retry := queued || k.clk.Now() != start; ; retry = true {
		// A cancel or shutdown surfaces as itself, not as the standoff's
		// ErrNoSpace.
		if err := c.p.checkLive(); err != nil {
			return err
		}
		// Space may have been freed while the call queued at the gate, or
		// since the release that woke it.
		if retry {
			if err = try(); !errors.Is(err, kvfs.ErrNoSpace) {
				return err
			}
		}
		// The prefix cache is a cache: its idle leaves go before anyone
		// waits. When they free GPU space, retry at once.
		if k.pcache.freeGPU() {
			continue
		}
		for _, f := range own {
			k.kvd.Preempt(f)
		}
		if released, werr := k.kvReleased.Wait(); werr != nil || !released {
			return cmp.Or(werr, err)
		}
	}
}

// unpin releases one pin on each of files.
func unpin(files []*kvfs.File) {
	for _, f := range files {
		f.Unpin()
	}
}

// promote is the one place KV pages climb back to the GPU, and the one
// place the climb is priced and ledgered. It runs one leg — f's host
// pages, or its disk pages — through withReclaim (partial progress
// accumulates), and returns the tokens moved and the virtual time they
// cost: PCIe for host pages, credited to the daemon's restore ledger;
// NVMe read plus PCIe for disk pages, credited to its disk-load ledger.
// Who waits for the bill is the caller's business: ensureResident sleeps
// it on the calling thread, the scheduler's resume hook adds it to the
// resuming step.
func (k *Kernel) promote(f *kvfs.File, from kvfs.Tier, cost model.CostModel) (moved int, bill time.Duration, err error) {
	_, host, disk := f.ResidentTokens()
	move, need := f.Restore, host
	if from == kvfs.Disk {
		move, need = f.PromoteDisk, disk
	}
	err = k.withReclaim(need, func() error {
		n, err := move()
		moved += n
		return err
	})
	switch {
	case moved == 0:
	case from == kvfs.Host:
		bill = cost.TransferTime(moved)
		k.restoreTime.Add(int64(bill))
		k.kvd.NoteRestore(f, moved, bill)
	default:
		bill = cost.DiskLoadTime(moved)
		k.kvd.NoteDiskLoad(f, moved, bill)
	}
	return moved, bill, err
}

// ensureResident brings f fully back to the GPU tier if a tool wait,
// the memory daemon, or a restart left pages elsewhere: promote's host
// leg and then its disk leg, each slept on the calling thread and traced.
// Disk pages are always loaded from the snapshot store, whose durable
// copy stays behind.
func (c *Ctx) ensureResident(f *kvfs.File, cost model.CostModel) error {
	k := c.p.k
	if f.GPUResident() {
		return nil
	}
	leg := func(from kvfs.Tier) error {
		start := k.clk.Now()
		moved, bill, err := k.promote(f, from, cost)
		if moved == 0 {
			return err
		}
		detail := fmt.Sprintf("%d tokens", moved)
		if from == kvfs.Disk {
			detail += " (disk)"
		}
		if serr := k.clk.Sleep(bill); serr != nil {
			return serr
		}
		k.tracer.Span(trace.Event{
			At: start, Dur: k.clk.Now() - start, PID: c.p.pid, TID: c.tid,
			Kind: trace.KindRestore, Detail: detail,
		})
		return err
	}
	_, _, disk := f.ResidentTokens()
	if err := leg(kvfs.Host); err != nil || disk == 0 {
		return err
	}
	return leg(kvfs.Disk)
}

// --- threads (§4.3) ---

// Spawn starts fn as a new thread of the process. The process does not
// exit until the thread finishes, joined or not.
func (c *Ctx) Spawn(fn Program) (*Thread, error) {
	if err := c.p.checkLive(); err != nil {
		return nil, err
	}
	p := c.p
	p.mu.Lock()
	p.threadSeq++
	tid := p.threadSeq
	p.mu.Unlock()
	t := &Thread{done: p.k.clk.NewEvent()}
	p.wg.Add(1)
	p.k.clk.Go("lip-thread", func() {
		err := runGuarded(fn, &Ctx{p: p, tid: tid})
		t.mu.Lock()
		t.err = err
		t.mu.Unlock()
		t.done.Fire()
		p.wg.Done()
	})
	return t, nil
}

// --- integrated external interaction (§4.3, §2.2) ---

// Call invokes a kernel-registered tool server-side. The thread enters the
// I/O wait state for the tool's latency; if the wait is long enough to be
// worth it, the kernel offloads the thread's private KV files to host
// memory for the duration, freeing GPU pages for other programs.
func (c *Ctx) Call(tool string, args string) (string, error) {
	k := c.p.k
	if err := c.p.checkLive(); err != nil {
		return "", err
	}
	k.mu.Lock()
	t, ok := k.tools[tool]
	k.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoTool, tool)
	}
	k.toolCalls.Inc()

	if t.Latency >= offloadThreshold {
		// Offload is asynchronous DMA overlapped with the wait; only the
		// restore on the next Pred costs the thread time. This is a direct
		// File.Offload, outside the daemon's ledger, on purpose: the
		// ledger (kvd.offloads, kvd.restores, the undone-offload share)
		// counts the daemon's own reclaims under pressure, and this
		// offload is the tool wait's, made at any pressure, so its
		// restore is charged to the thread but credited to no reclaim.
		// A file a sibling thread's pred has pinned stays on the GPU.
		for _, f := range c.tracked {
			if !f.Removed() {
				f.Offload() // best effort; host pressure just keeps pages on GPU
			}
		}
	}

	tstart := k.clk.Now()
	if err := k.clk.Sleep(t.Latency); err != nil {
		return "", err
	}
	k.tracer.Span(trace.Event{
		At: tstart, Dur: k.clk.Now() - tstart, PID: c.p.pid, TID: c.tid,
		Kind: trace.KindTool, Detail: tool,
	})
	if t.Fn == nil {
		return "", nil
	}
	return t.Fn(args)
}

// --- IPC ---

// Send delivers a message to another process's mailbox.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) Send(pid int, payload string) error {
	if err := c.p.checkLive(); err != nil {
		return err
	}
	target, err := c.p.k.Process(pid)
	if err != nil {
		return err
	}
	c.p.k.ipcMessages.Inc()
	target.mailbox.Put(Message{From: c.p.pid, Payload: payload})
	return nil
}

// Recv parks until a message arrives in this process's mailbox.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) Recv() (Message, error) {
	if err := c.p.checkLive(); err != nil {
		return Message{}, err
	}
	return c.p.mailbox.Get()
}

// TryRecv returns a queued message without blocking.
//
//lint:allow testonly a §4 system call; programs reach it through Ctx, tests and examples/ exercise it
func (c *Ctx) TryRecv() (Message, bool) {
	return c.p.mailbox.TryGet()
}
