package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/lipscript"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// Unit costs: each layer's public functions timed in isolation, on inputs
// taken from the workload being run. They say what one call costs the Go
// code; the counts in Kernel.Stats say how many calls a request makes.

// unitBudget is how long one unit-cost measurement runs.
const unitBudget = 25 * time.Millisecond

// measure runs op(n) with growing n until one batch lasts unitBudget and
// returns nanoseconds and heap allocations per iteration of that batch.
func measure(op func(n int)) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if d >= unitBudget || n >= 1<<24 {
			return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
	}
}

// inActor runs fn as the only actor of a fresh virtual clock and returns
// when it has finished.
func inActor(fn func(clk *simclock.Clock)) {
	clk := simclock.New()
	done := make(chan struct{})
	clk.Go("unit", func() {
		defer close(done)
		fn(clk)
	})
	<-done
	clk.Shutdown()
}

// promptOf returns the first prefill text of a script.
func promptOf(s *lipscript.Script) string {
	for _, st := range s.Steps {
		if st.Op == lipscript.OpPrefill {
			return st.Text
		}
	}
	return ""
}

func positions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// unitCosts measures every unit cost on the given request body and adds
// them to m under their per-layer metric names.
func unitCosts(body []byte, m map[string]float64) error {
	script, err := lipscript.Parse(body)
	if err != nil {
		return fmt.Errorf("unit costs: %w", err)
	}
	m["lipscript.stmts_per_req"] = float64(len(script.Steps))
	ns, allocs := measure(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = lipscript.Parse(body) // parsed once above without error
		}
	})
	m["lipscript.parse_us_per_req"], m["lipscript.parse_allocs_per_req"] = ns/1e3, allocs

	tok := newTokenizer()
	prompt := promptOf(script)
	toks := tok.Encode(prompt)
	ns, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			tok.Encode(prompt)
		}
	})
	m["token.encode_ns_per_tok"] = ns / float64(len(toks))

	mdl := model.New(model.Llama13B())
	h := model.HashContext(0, toks, 0)
	var sink model.Dist
	ns, allocs = measure(func(n int) {
		for i := 0; i < n; i++ {
			sink = mdl.Next(h.Extend(token.ID(i), i))
		}
	})
	_ = sink
	m["model.next_ns"], m["model.next_allocs"] = ns, allocs

	kvfsCosts(toks, m)
	for _, files := range []int{64, 512} {
		us := reclaimCost(files)
		if files == 512 {
			m["kvd.host_us_per_reclaim"] = us
		} else {
			m["kvd.host_us_per_reclaim_64"] = us
		}
	}
	m["sched.host_us_per_step_b1"] = schedStepCost(1)
	m["sched.host_us_per_step"] = schedStepCost(8)
	m["sched.host_us_per_step_b32"] = schedStepCost(32)
	if err := kvstoreCosts(toks, m); err != nil {
		return err
	}
	simclockCosts(m)
	return nil
}

// bigFS is a file system no unit measurement can fill.
func bigFS() *kvfs.FS {
	return kvfs.NewFS(kvfs.Config{PageTokens: 16, GPUBytes: 1 << 50, HostBytes: 1 << 50, BytesPerToken: 800 << 10})
}

func kvfsCosts(toks []token.ID, m map[string]float64) {
	pos := positions(len(toks))
	fs := bigFS()
	ns, _ := measure(func(n int) {
		for i := 0; i < n; i++ {
			f := fs.CreateAnon("u")
			_, _ = f.Append(toks, pos) // bigFS cannot run out of space
			_ = f.Remove()
		}
	})
	m["kvfs.append_ns_per_tok"] = ns / float64(len(toks))

	src := fs.CreateAnon("u")
	_, _ = src.Append(toks, pos)
	ns, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			c, _ := src.Fork("u")
			_ = c.Remove()
		}
	})
	m["kvfs.fork_ns"] = ns

	aligned := len(toks) / 16 * 16
	ns, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			f := fs.CreateAnon("u")
			if aligned > 0 {
				_ = f.AdoptPrefix(src, aligned)
			}
			_ = f.Remove()
		}
	})
	m["kvfs.adopt_ns"] = ns

	pages := (len(toks) + 15) / 16
	own := fs.CreateAnon("u")
	_, _ = own.Append(toks, pos)
	ns, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = own.Offload()
			_, _ = own.Restore()
		}
	})
	m["kvfs.offload_ns_per_page"] = ns / float64(pages)
}

// reclaimCost times kvd.Daemon.Reclaim with the given number of tracked
// 256-token files, restoring the evicted file between calls so every call
// ranks the same candidate set. It returns microseconds per reclaim.
func reclaimCost(files int) float64 {
	var us float64
	inActor(func(clk *simclock.Clock) {
		fs := bigFS()
		d, err := kvd.New(clk, fs, model.A100Llama13B(), kvd.Config{Policy: "lru"})
		if err != nil {
			panic(err) // "lru" is a registered policy
		}
		toks := make([]token.ID, 256)
		pos := positions(len(toks))
		var evicted *kvfs.File
		for i := 0; i < files; i++ {
			f := fs.CreateAnon("u")
			_, _ = f.Append(toks, pos)
			d.Track(f, i, func(kvd.Event) { evicted = f })
		}
		ns, _ := measure(func(n int) {
			for i := 0; i < n; i++ {
				d.Reclaim(16)
				if evicted != nil {
					_, _ = evicted.Restore()
					d.NoteRestore(evicted, 256, 0)
					evicted = nil
				}
			}
		})
		us = ns / 1e3
	})
	return us
}

// schedStepCost drives a bare scheduler with `batch` actors that each
// submit one-token calls back to back, and returns host microseconds per
// GPU step.
func schedStepCost(batch int) float64 {
	const callsPerActor = 400
	clk := simclock.New()
	cost := model.A100Llama13B()
	t0 := time.Now()
	s := sched.New(clk, sched.Config{Models: map[string]model.CostModel{"m": cost}})
	done := make(chan struct{})
	clk.Go("unit", func() {
		defer close(done)
		wg := clk.NewWaitGroup()
		wg.Add(batch)
		for a := 0; a < batch; a++ {
			clk.Go("caller", func() {
				defer wg.Done()
				for i := 0; i < callsPerActor; i++ {
					if err := s.SubmitCall(sched.Call{Model: "m", Tokens: 1}); err != nil {
						return
					}
				}
			})
		}
		_ = wg.Wait()
	})
	<-done
	d := time.Since(t0)
	steps := s.Stats().Steps
	clk.Shutdown()
	if steps == 0 {
		return 0
	}
	return float64(d.Microseconds()) / float64(steps)
}

func kvstoreCosts(toks []token.ID, m map[string]float64) error {
	entries := make([]kvstore.SnapshotEntry, 16)
	for e := range entries {
		recs := make([]kvstore.Rec, len(toks))
		h := model.CtxHash(e + 1)
		for i, t := range toks {
			h = h.Extend(t, i)
			recs[i] = kvstore.Rec{Tok: t, Pos: i, KV: h}
		}
		entries[e] = kvstore.SnapshotEntry{Root: model.CtxHash(e + 1), Seq: uint64(e + 1), Path: fmt.Sprintf("unit/%d", e), Owner: "u", Recs: recs}
	}
	data, err := kvstore.EncodeSnapshot(entries)
	if err != nil {
		return fmt.Errorf("unit costs: %w", err)
	}
	mb := float64(len(data)) / (1 << 20)
	ns, _ := measure(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = kvstore.EncodeSnapshot(entries)
		}
	})
	m["kvstore.encode_mb_per_s"] = mb / (ns / 1e9)
	ns, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = kvstore.DecodeSnapshot(data)
		}
	})
	m["kvstore.decode_mb_per_s"] = mb / (ns / 1e9)

	var commitErr error
	inActor(func(clk *simclock.Clock) {
		store := kvstore.NewStore(kvstore.NewSimFS(clk, model.A100Llama13B()))
		for _, e := range entries {
			store.Put(e)
		}
		ns, _ := measure(func(n int) {
			for i := 0; i < n && commitErr == nil; i++ {
				commitErr = store.Commit()
			}
		})
		m["kvstore.commit_us"] = ns / 1e3
	})
	if commitErr != nil {
		return fmt.Errorf("unit costs: commit: %w", commitErr)
	}
	return nil
}

func simclockCosts(m map[string]float64) {
	inActor(func(clk *simclock.Clock) {
		ns, _ := measure(func(n int) {
			for i := 0; i < n; i++ {
				_ = clk.Sleep(time.Microsecond)
			}
		})
		m["simclock.ns_per_sleep_wake"] = ns
	})

	// Two actors hand control back and forth through one-shot events.
	const rounds = 20000
	clk := simclock.New()
	ping := make([]*simclock.Event, rounds)
	pong := make([]*simclock.Event, rounds)
	for i := range ping {
		ping[i], pong[i] = clk.NewEvent(), clk.NewEvent()
	}
	done := make(chan struct{})
	t0 := time.Now()
	clk.Go("pong", func() {
		for i := range ping {
			if ping[i].Wait() != nil {
				return
			}
			pong[i].Fire()
		}
	})
	clk.Go("ping", func() {
		defer close(done)
		for i := range ping {
			ping[i].Fire()
			if pong[i].Wait() != nil {
				return
			}
		}
	})
	<-done
	m["simclock.ns_per_event_wake"] = float64(time.Since(t0).Nanoseconds()) / (2 * rounds)
	clk.Shutdown()
}
