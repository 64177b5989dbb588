package baseline

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/token"
)

func smallFS(gpuTokens int) kvfs.Config {
	return kvfs.Config{
		PageTokens:    16,
		GPUBytes:      int64(gpuTokens),
		HostBytes:     int64(gpuTokens) * 10,
		BytesPerToken: 1,
	}
}

func drive(t *testing.T, clk *simclock.Clock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		clk.Go("driver", fn)
		clk.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stalled at %v", clk.Now())
	}
	clk.Shutdown()
}

// expectedGreedy walks the model directly: prompt prefill then greedy
// decode, the ground truth both servers must reproduce.
func expectedGreedy(m *model.Model, prompt []token.ID, maxTokens int) []token.ID {
	h := model.HashContext(0, prompt, 0)
	var out []token.ID
	pos := len(prompt)
	for len(out) < maxTokens {
		tok := m.Next(h).Greedy()
		if tok == token.EOS {
			break
		}
		out = append(out, tok)
		h = h.Extend(tok, pos)
		pos++
	}
	return out
}

func prompt(v *token.Vocab, words int, seed int64) []token.ID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]token.ID, words)
	for i := range out {
		out[i] = v.Intern(string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))))
	}
	return out
}

func TestTGIMatchesGroundTruth(t *testing.T) {
	clk := simclock.New()
	m := model.New(model.Llama13B())
	srv := NewTGI(clk, Config{Model: m, FS: smallFS(100_000)})
	v := token.NewVocab()
	p := prompt(v, 50, 1)
	var got Response
	drive(t, clk, func() {
		r, err := srv.Complete(Request{Prompt: p, MaxTokens: 12})
		if err != nil {
			t.Error(err)
			return
		}
		got = r
	})
	want := expectedGreedy(m, p, 12)
	if len(got.Tokens) != len(want) {
		t.Fatalf("len = %d, want %d", len(got.Tokens), len(want))
	}
	for i := range want {
		if got.Tokens[i] != want[i] {
			t.Fatalf("token %d differs", i)
		}
	}
	if got.CachedTokens != 0 {
		t.Fatal("TGI claims cache hits")
	}
	st := srv.Stats()
	if st.Requests != 1 || st.PromptTokens != 50 || st.CachedTokens != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FS.GPUPages != 0 {
		t.Fatalf("leaked %d pages", st.FS.GPUPages)
	}
}

// TestGenerationIsOneDecodeRun holds each baseline to two scheduler calls
// per request — the prefill and one decode run of the whole answer — and
// a whole-prompt vLLM cache hit to the decode run alone.
func TestGenerationIsOneDecodeRun(t *testing.T) {
	v := token.NewVocab()
	p := prompt(v, 160, 3) // 10 whole blocks
	for _, tc := range []struct {
		name string
		mk   func(*simclock.Clock, Config) Server
	}{
		{"tgi", func(c *simclock.Clock, cfg Config) Server { return NewTGI(c, cfg) }},
		{"vllm", func(c *simclock.Clock, cfg Config) Server { return NewVLLM(c, cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			m := model.New(model.Llama13B())
			srv := tc.mk(clk, Config{Model: m, FS: smallFS(100_000)})
			check := func(calls, executed int64) {
				t.Helper()
				r, err := srv.Complete(Request{Prompt: p, MaxTokens: 20})
				if err != nil {
					t.Error(err)
					return
				}
				if len(r.Tokens) < 2 {
					t.Errorf("generated %d tokens, want a multi-token answer", len(r.Tokens))
				}
				st := srv.Stats().Sched
				executed += int64(len(p) - r.CachedTokens + len(r.Tokens))
				if st.Calls != calls || st.ExecutedTokens != executed {
					t.Errorf("calls %d, executed %d; want %d, %d", st.Calls, st.ExecutedTokens, calls, executed)
				}
			}
			drive(t, clk, func() {
				check(2, 0)
				if tc.name == "vllm" {
					check(3, srv.Stats().Sched.ExecutedTokens)
				}
			})
		})
	}
}

// TestDecodeRunGrowsKVWithTheGPU holds a decode run's KV file to the GPU's
// pace: each answer token is appended alone, just before the iteration
// that processes it, never the whole answer at submission.
func TestDecodeRunGrowsKVWithTheGPU(t *testing.T) {
	clk := simclock.New()
	e := NewTGI(clk, Config{Model: model.New(model.Llama13B()), FS: smallFS(100_000)}).e
	p := prompt(token.NewVocab(), 40, 5)
	drive(t, clk, func() {
		f := e.fs.CreateAnon("server")
		defer f.Remove()
		if err := e.prefill(f, p, positions(0, len(p)), appendKV); err != nil {
			t.Error(err)
			return
		}
		appends := 0
		out, err := e.decode(f, 20, func(f *kvfs.File, toks []token.ID, pos []int) error {
			// Before the run's i-th iteration the GPU has executed the
			// prompt and i answer tokens, and position len(p)+i is next.
			if ran := e.sch.Stats().ExecutedTokens; len(toks) != 1 || int64(pos[0]) != ran {
				t.Errorf("append %d: %d tokens at position %d after %d executed", appends, len(toks), pos[0], ran)
			}
			appends++
			return appendKV(f, toks, pos)
		})
		if err != nil {
			t.Error(err)
			return
		}
		if len(out) < 2 || appends != len(out) || f.Len() != len(p)+len(out) {
			t.Errorf("%d tokens in %d appends, file %d; want a multi-token answer, one append each, file %d", len(out), appends, f.Len(), len(p)+len(out))
		}
	})
}

func TestVLLMPrefixCacheHit(t *testing.T) {
	clk := simclock.New()
	m := model.New(model.Llama13B())
	srv := NewVLLM(clk, Config{Model: m, FS: smallFS(100_000)})
	v := token.NewVocab()
	doc := prompt(v, 160, 7) // 10 blocks
	q1 := append(append([]token.ID(nil), doc...), prompt(v, 8, 100)...)
	q2 := append(append([]token.ID(nil), doc...), prompt(v, 8, 200)...)

	var r1, r2 Response
	var t1, t2 time.Duration
	drive(t, clk, func() {
		start := clk.Now()
		r1, _ = srv.Complete(Request{Prompt: q1, MaxTokens: 8})
		t1 = clk.Now() - start
		start = clk.Now()
		r2, _ = srv.Complete(Request{Prompt: q2, MaxTokens: 8})
		t2 = clk.Now() - start
	})
	if r1.CachedTokens != 0 {
		t.Fatalf("first request cached %d", r1.CachedTokens)
	}
	if r2.CachedTokens < 160 {
		t.Fatalf("second request cached only %d of 160 shared tokens", r2.CachedTokens)
	}
	if t2 >= t1 {
		t.Fatalf("cache hit not faster: %v vs %v", t2, t1)
	}
	// Correctness: both answers match the ground truth.
	for i, want := range expectedGreedy(m, q2, 8) {
		if r2.Tokens[i] != want {
			t.Fatalf("cached request diverged at %d", i)
		}
	}
}

func TestVLLMCacheOutputsEqualTGI(t *testing.T) {
	// Property-style correctness: across a workload with heavy sharing and
	// eviction pressure, vLLM's outputs must be identical to TGI's.
	v := token.NewVocab()
	docs := make([][]token.ID, 6)
	for i := range docs {
		docs[i] = prompt(v, 96, int64(i))
	}
	rng := rand.New(rand.NewSource(99))
	type req struct {
		p []token.ID
	}
	var reqs []req
	for i := 0; i < 30; i++ {
		d := docs[rng.Intn(len(docs))]
		q := append(append([]token.ID(nil), d...), prompt(v, 6, int64(1000+i))...)
		reqs = append(reqs, req{p: q})
	}
	run := func(mk func(*simclock.Clock, Config) Server) [][]token.ID {
		clk := simclock.New()
		m := model.New(model.Llama13B())
		// Tight memory: ~2.5 documents' worth, forcing eviction.
		srv := mk(clk, Config{Model: m, FS: smallFS(400)})
		out := make([][]token.ID, len(reqs))
		drive(t, clk, func() {
			for i, r := range reqs {
				resp, err := srv.Complete(Request{Prompt: r.p, MaxTokens: 6})
				if err != nil {
					t.Errorf("req %d: %v", i, err)
					return
				}
				out[i] = resp.Tokens
			}
		})
		return out
	}
	vOut := run(func(c *simclock.Clock, cfg Config) Server { return NewVLLM(c, cfg) })
	tOut := run(func(c *simclock.Clock, cfg Config) Server { return NewTGI(c, cfg) })
	for i := range reqs {
		if len(vOut[i]) != len(tOut[i]) {
			t.Fatalf("req %d: lengths %d vs %d", i, len(vOut[i]), len(tOut[i]))
		}
		for j := range vOut[i] {
			if vOut[i][j] != tOut[i][j] {
				t.Fatalf("req %d token %d: vllm %d != tgi %d", i, j, vOut[i][j], tOut[i][j])
			}
		}
	}
}

func TestVLLMEvictionUnderPressure(t *testing.T) {
	clk := simclock.New()
	m := model.New(model.Llama13B())
	srv := NewVLLM(clk, Config{Model: m, FS: smallFS(300)})
	v := token.NewVocab()
	drive(t, clk, func() {
		for i := 0; i < 8; i++ {
			p := prompt(v, 128, int64(i)) // distinct docs exceed capacity
			if _, err := srv.Complete(Request{Prompt: p, MaxTokens: 4}); err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
		}
	})
	st := srv.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if st.FS.GPUPages > st.FS.GPUPageCap {
		t.Fatal("capacity exceeded")
	}
}

func TestAdmissionSerializesOversizedLoad(t *testing.T) {
	clk := simclock.New()
	m := model.New(model.Llama13B())
	// Capacity fits one request (64+16=80 tokens) but not two.
	srv := NewTGI(clk, Config{Model: m, FS: smallFS(128)})
	v := token.NewVocab()
	var ok int
	drive(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			clk.Go("client", func() {
				defer wg.Done()
				p := prompt(v, 64, int64(i))
				if _, err := srv.Complete(Request{Prompt: p, MaxTokens: 16}); err == nil {
					ok++
				}
			})
		}
		wg.Wait()
	})
	if ok != 2 {
		t.Fatalf("only %d/2 requests completed", ok)
	}
}

func TestOversizedRequestRefused(t *testing.T) {
	// 120 prompt + 16 decode tokens exceed the whole 128-token GPU tier.
	srv := NewTGI(simclock.New(), Config{Model: model.New(model.Llama13B()), FS: smallFS(128)})
	if _, err := srv.Complete(Request{Prompt: prompt(token.NewVocab(), 120, 1), MaxTokens: 16}); err != errGateTooBig {
		t.Fatalf("oversized request: %v", err)
	}
}

func TestVLLMLRUKeepsHotPrefix(t *testing.T) {
	// Under pressure the LRU must evict the cold document, not the hot one
	// that every other request touches.
	clk := simclock.New()
	m := model.New(model.Llama13B())
	srv := NewVLLM(clk, Config{Model: m, FS: smallFS(360)})
	v := token.NewVocab()
	hot := prompt(v, 128, 1)
	var hotHits, coldHits int
	drive(t, clk, func() {
		// Prime the hot doc, then alternate: hot, cold_i, hot, cold_j ...
		srv.Complete(Request{Prompt: hot, MaxTokens: 2})
		for i := 0; i < 6; i++ {
			cold := prompt(v, 128, int64(100+i))
			if r, err := srv.Complete(Request{Prompt: cold, MaxTokens: 2}); err == nil && r.CachedTokens > 0 {
				coldHits++
			}
			if r, err := srv.Complete(Request{Prompt: hot, MaxTokens: 2}); err == nil && r.CachedTokens > 0 {
				hotHits++
			}
		}
	})
	if hotHits < 5 {
		t.Fatalf("hot prefix evicted: %d/6 hits", hotHits)
	}
	if coldHits != 0 {
		t.Fatalf("cold one-shot prompts hit the cache %d times", coldHits)
	}
	if srv.Stats().Evictions == 0 {
		t.Fatal("no evictions despite pressure")
	}
}

func TestVLLMDeepestPrefixWins(t *testing.T) {
	// A request sharing 2 blocks with one cached prompt and 4 with another
	// must reuse the deeper prefix.
	clk := simclock.New()
	m := model.New(model.Llama13B())
	srv := NewVLLM(clk, Config{Model: m, FS: smallFS(100_000)})
	v := token.NewVocab()
	base := prompt(v, 64, 5) // 4 blocks
	short := append(append([]token.ID(nil), base[:32]...), prompt(v, 16, 6)...)
	drive(t, clk, func() {
		srv.Complete(Request{Prompt: short, MaxTokens: 2}) // caches 2 shared blocks
		srv.Complete(Request{Prompt: base, MaxTokens: 2})  // caches all 4
		r, err := srv.Complete(Request{Prompt: append(append([]token.ID(nil), base...), 99), MaxTokens: 2})
		if err != nil {
			t.Error(err)
			return
		}
		if r.CachedTokens != 64 {
			t.Errorf("cached %d tokens, want the full 64-token prefix", r.CachedTokens)
		}
	})
}

func TestClientChargesNetwork(t *testing.T) {
	clk := simclock.New()
	m := model.New(model.Llama13B())
	srv := NewTGI(clk, Config{Model: m, FS: smallFS(100_000)})
	vocab := token.NewVocab()
	tk := token.NewTokenizer(vocab)
	link := netsim.New(clk, 40*time.Millisecond, 0)
	client := NewClient(link, srv)
	var netFree, netPaid time.Duration
	drive(t, clk, func() {
		start := clk.Now()
		if _, err := srv.Complete(Request{Prompt: tk.Encode("direct call"), MaxTokens: 4}); err != nil {
			t.Error(err)
			return
		}
		netFree = clk.Now() - start
		start = clk.Now()
		if _, err := client.CompleteTokens(tk.Encode("direct call"), 4); err != nil {
			t.Error(err)
			return
		}
		netPaid = clk.Now() - start
	})
	if diff := netPaid - netFree; diff != 40*time.Millisecond {
		t.Fatalf("network surcharge = %v, want 40ms RTT", diff)
	}
}

func TestEmptyPromptRejected(t *testing.T) {
	clk := simclock.New()
	m := model.New(model.Llama13B())
	tgi := NewTGI(clk, Config{Model: m, FS: smallFS(1000)})
	vllm := NewVLLM(clk, Config{Model: m, FS: smallFS(1000)})
	drive(t, clk, func() {
		if _, err := tgi.Complete(Request{MaxTokens: 4}); err == nil {
			t.Error("TGI accepted empty prompt")
		}
		if _, err := vllm.Complete(Request{MaxTokens: 4}); err == nil {
			t.Error("vLLM accepted empty prompt")
		}
	})
}
