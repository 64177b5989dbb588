package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lipscript"
	"repro/internal/model"
	"repro/internal/simclock"
)

// The output checker runs on every invocation. Caching, speculation,
// offload, migration and batching may change when a token is produced,
// never which token: a sample of requests is replayed alone on a plain
// kernel and must answer byte for byte what the system under test answered.

// checkSample is how many requests of a run are replayed.
const checkSample = 32

// referenceOutputs runs each script alone, one after the other, on a plain
// kernel — one replica, no prefix cache, no speculation, no KV daemon —
// and returns what each answered.
func referenceOutputs(bodies [][]byte) ([]string, error) {
	clk := simclock.New()
	k := core.New(clk, core.Config{
		Models:    map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Tokenizer: newTokenizer(),
	})
	k.RegisterTool(kvThinkTool, thinkTool)
	// symphonyd's search tool, as cmd/symphonyd registers it.
	k.RegisterTool("search", core.Tool{
		Latency: 150 * time.Millisecond,
		Fn:      func(args string) (string, error) { return "results for " + args, nil },
	})
	outs := make([]string, len(bodies))
	var runErr error
	done := make(chan struct{})
	clk.Go("reference", func() {
		defer close(done)
		for i, body := range bodies {
			p, err := lipscript.Submit(k, "reference", body)
			if err != nil {
				runErr = fmt.Errorf("reference replay %d: %w", i, err)
				return
			}
			if err := p.Wait(); err != nil {
				runErr = fmt.Errorf("reference replay %d: %w", i, err)
				return
			}
			outs[i] = p.Output()
		}
	})
	<-done
	clk.Shutdown()
	return outs, runErr
}

// sampleIndices draws up to checkSample distinct indices below n.
func sampleIndices(seed int64, n int) []int {
	idx := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
	if len(idx) > checkSample {
		idx = idx[:checkSample]
	}
	return idx
}

// compareOutputs replays the given bodies and reports every request whose
// observed output differs from the reference.
func compareOutputs(what string, bodies [][]byte, observed []string) []string {
	want, err := referenceOutputs(bodies)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for i := range bodies {
		if observed[i] != want[i] {
			problems = append(problems, fmt.Sprintf("%s: output differs from the plain-kernel replay (got %d bytes %.40q, want %d bytes %.40q)",
				what, len(observed[i]), observed[i], len(want[i]), want[i]))
		}
	}
	return problems
}

// checkKernelRun applies the output checks to one finished kernel run.
func checkKernelRun(run *kernelRun, seed int64) []string {
	var problems []string
	var bodies [][]byte
	var observed []string
	for _, i := range sampleIndices(seed, len(run.results)) {
		if r := &run.results[i]; r.ok() {
			bodies = append(bodies, r.req.body)
			observed = append(observed, r.output)
		}
	}
	problems = append(problems, compareOutputs(run.spec.name, bodies, observed)...)

	s := run.stats.Sched
	if !run.timedOut && s.ExecutedTokens != s.Tokens+s.LostTokens {
		problems = append(problems, fmt.Sprintf("%s: token ledger broken at quiescence: executed %d != submitted %d + lost %d",
			run.spec.name, s.ExecutedTokens, s.Tokens, s.LostTokens))
	}
	if run.spec.noSharing && run.stats.PrefixCache.HitTokens != 0 {
		problems = append(problems, fmt.Sprintf("%s: the prefix cache hit %d tokens on traffic that shares nothing",
			run.spec.name, run.stats.PrefixCache.HitTokens))
	}
	return problems
}

// checkDaemonRun replays a sample of the daemon's requests in process. The
// per-job status/output/pred_tokens checks ran in the client already.
func checkDaemonRun(run *daemonRun, seed int64) []string {
	all := run.all()
	var bodies [][]byte
	var observed []string
	for _, i := range sampleIndices(seed, len(all)) {
		if r := &all[i]; r.ok() {
			bodies = append(bodies, genDaemonRequest(seed, r.client, r.idx).body)
			observed = append(observed, r.output)
		}
	}
	return compareOutputs("daemon_http", bodies, observed)
}

// daemonDigest hashes the warm-up requests' answers: the one set of
// requests every run of a seed is sure to send. Each client sends its
// warm-up in index order, so the order is fixed too.
func daemonDigest(run *daemonRun) string {
	h := sha256.New()
	for _, seg := range run.segs {
		for _, r := range seg.warm {
			fmt.Fprintf(h, "%d %d %q\n", r.client, r.idx, r.output)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestSeed is the seed whose output digests are stored; seed 7 is held
// out: a later claim must also hold on it, and nothing here is tuned to it.
const digestSeed = 1

//go:embed digests.json
var digestsJSON []byte

// checkDigest compares a seed-1 run's output digest with the stored one.
func checkDigest(workload string, seed int64, got string) []string {
	if seed != digestSeed {
		return nil
	}
	var stored map[string]string
	if err := json.Unmarshal(digestsJSON, &stored); err != nil {
		return []string{"digests.json: " + err.Error()}
	}
	if want := stored[workload]; want != got {
		return []string{fmt.Sprintf("%s: output digest for seed %d is %s, digests.json has %s", workload, seed, got, want)}
	}
	return nil
}
