package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/lipscript"
	"repro/internal/token"
	"repro/internal/workload"
)

// The generator builds every input up front from the seed; the system
// under test receives only the lipscript bodies it produces.
//
// All prompt text is drawn from one fixed dictionary that is interned into
// the tokenizer before any request runs. Token IDs are assigned in
// first-seen order and the simulated model's output depends on them, so a
// vocabulary that grew in arrival order would make a request's output
// depend on what ran before it. With a static vocabulary every request's
// output is a pure function of its script, which is what lets the output
// checker replay a request alone and demand identical bytes.

const dictWords = 4096

// dictionary lists the words prompts are built from. "results" and "for"
// come first because symphonyd's search tool answers "results for <args>"
// and the daemon workload folds that answer back into the context.
var dictionary = func() []string {
	words := make([]string, 0, dictWords)
	words = append(words, "results", "for")
	for i := len(words); i < dictWords; i++ {
		words = append(words, fmt.Sprintf("w%04d", i))
	}
	return words
}()

// dictionaryText is the text whose tokenization interns the whole
// dictionary (and the single space) in a fixed order.
func dictionaryText() string { return strings.Join(dictionary, " ") }

// newTokenizer returns a tokenizer with the dictionary interned.
func newTokenizer() *token.Tokenizer {
	tok := token.NewTokenizer(token.NewVocab())
	tok.Encode(dictionaryText())
	return tok
}

// textGen draws dictionary text of exact token lengths.
type textGen struct {
	rng   *rand.Rand
	words []string
}

func newTextGen(seed int64) *textGen {
	return &textGen{rng: rand.New(rand.NewSource(seed)), words: dictionary}
}

// text returns n tokens: words alternating with single spaces, starting
// with a word. An even n ends on a space, so texts concatenate without
// merging whitespace runs.
func (g *textGen) text(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.WriteString(g.words[g.rng.Intn(len(g.words))])
		} else {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// tag returns an 8-token opening that is unique to id: its digits in base
// len(words), as words. No two requests share even their first radix chunk.
func (g *textGen) tag(id int) string {
	var b strings.Builder
	for i := 0; i < 4; i++ {
		b.WriteString(g.words[id%len(g.words)])
		b.WriteByte(' ')
		id /= len(g.words)
	}
	return b.String()
}

// request is one generated LIP program and when it is due.
type request struct {
	idx  int
	due  time.Duration // open loop: virtual arrival; closed loop: unused
	user string
	lane string // population the request belongs to ("interactive", "batch")
	// prompt is the number of prompt tokens the script prefills.
	prompt int
	body   []byte
}

func mustScript(s lipscript.Script) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Script of strings and numbers always marshals
	}
	return b
}

// sampleTemp is the sampling temperature of every "sampled" generation. At
// 0.4 the model's end-of-sequence mass (at most 5%) is squashed enough that
// almost every generation runs to max_tokens.
const sampleTemp = 0.4

// poissonArrivals returns n arrival times at rate per virtual second.
func poissonArrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	p := workload.NewPoisson(rate)
	out := make([]time.Duration, n)
	var t time.Duration
	for i := range out {
		t += p.NextGap(rng)
		out[i] = t
	}
	return out
}

// Frozen shapes of the prefix_share workload.
const (
	prefixTenants   = 32
	prefixPreamble  = 1024
	prefixUniqueMin = 40
	prefixUniqueMax = 56
	prefixDecode    = 32
	prefixPareto    = 1.2
)

// genPrefixShare: every request is a tenant's shared 1,024-token preamble,
// ~48 unique tokens and 32 sampled tokens; tenant popularity is
// Pareto(1.2).
func genPrefixShare(seed int64, n int, rate float64) []request {
	g := newTextGen(seed)
	preambles := make([]string, prefixTenants)
	for t := range preambles {
		preambles[t] = g.text(prefixPreamble)
	}
	pop := workload.NewPareto(prefixTenants, prefixPareto)
	due := poissonArrivals(g.rng, n, rate)
	out := make([]request, n)
	for i := range out {
		t := pop.Sample(g.rng)
		unique := prefixUniqueMin + g.rng.Intn(prefixUniqueMax-prefixUniqueMin+1)
		out[i] = request{
			idx: i, due: due[i], user: fmt.Sprintf("tenant-%02d", t), lane: "interactive",
			prompt: prefixPreamble + unique,
			body: mustScript(lipscript.Script{Priority: "interactive", Steps: []lipscript.Stmt{
				{Op: lipscript.OpAnon, S: "c"},
				{Op: lipscript.OpPrefill, S: "c", Text: preambles[t] + g.text(unique)},
				{Op: lipscript.OpGenerate, S: "c", MaxTokens: prefixDecode, Temperature: sampleTemp, Seed: g.rng.Uint64()},
				{Op: lipscript.OpRemove, S: "c"},
			}}),
		}
	}
	return out
}

// Frozen shapes of the mixed_lanes workload.
const (
	mixedInteractivePrompt = 64
	mixedInteractiveDecode = 48
	mixedBatchPrompt       = 2048
	mixedBatchDecode       = 128
)

// genMixedLanes: four in five requests are interactive (64-token prompt, 48
// sampled tokens) and one in five is a batch request (2,048-token prompt,
// 128 greedy tokens, so the decode-run and speculation paths apply). Every
// prompt opens with a unique tag, so the prefix cache never finds a shared
// chunk.
func genMixedLanes(seed int64, n int, rate float64) []request {
	g := newTextGen(seed)
	due := poissonArrivals(g.rng, n, rate)
	out := make([]request, n)
	// One request in every block of five is a batch request, at a random
	// place in the block: the mix is exact, so two seeds differ in order
	// and content, not in how much work they send.
	const block = 5 // = 1 / mixedBatchShare
	var batchAt int
	for i := range out {
		if i%block == 0 {
			batchAt = i + g.rng.Intn(block)
		}
		r := request{idx: i, due: due[i], user: "mixed"}
		gen := lipscript.Stmt{Op: lipscript.OpGenerate, S: "c"}
		if i == batchAt {
			r.lane, r.prompt = "batch", mixedBatchPrompt
			gen.MaxTokens = mixedBatchDecode
		} else {
			r.lane, r.prompt = "interactive", mixedInteractivePrompt
			gen.MaxTokens, gen.Temperature, gen.Seed = mixedInteractiveDecode, sampleTemp, g.rng.Uint64()
		}
		r.body = mustScript(lipscript.Script{Priority: r.lane, Steps: []lipscript.Stmt{
			{Op: lipscript.OpAnon, S: "c"},
			{Op: lipscript.OpPrefill, S: "c", Text: g.tag(i) + g.text(r.prompt-8)},
			gen,
			{Op: lipscript.OpRemove, S: "c"},
		}})
		out[i] = r
	}
	return out
}

// Frozen shapes of the kv_pressure workload.
const (
	kvOpenPrefill = 512
	kvTurns       = 6
	kvTurnDecode  = 32
	kvTurnPrefill = 256
	kvThinkTool   = "think"
	kvThink       = 2 * time.Second
)

// genKVPressure: a session prefills 512 tokens, then six times samples 32
// tokens, waits 2 s in a tool call and prefills 256 more, then generates
// once more and removes its file — about 2.3k tokens live per session,
// idle (and so offloadable) for most of its life. Sessions are named, so
// the periodic checkpoint writes them through the snapshot store.
func genKVPressure(seed int64, n int, _ float64) []request {
	g := newTextGen(seed)
	out := make([]request, n)
	for i := range out {
		steps := []lipscript.Stmt{
			{Op: lipscript.OpCreate, S: "c", Path: fmt.Sprintf("sess/%05d", i)},
			{Op: lipscript.OpPrefill, S: "c", Text: g.tag(i) + g.text(kvOpenPrefill-8)},
		}
		for t := 0; t < kvTurns; t++ {
			steps = append(steps,
				lipscript.Stmt{Op: lipscript.OpGenerate, S: "c", MaxTokens: kvTurnDecode, Temperature: sampleTemp, Seed: g.rng.Uint64()},
				lipscript.Stmt{Op: lipscript.OpCall, Tool: kvThinkTool, Text: "turn"},
				lipscript.Stmt{Op: lipscript.OpPrefill, S: "c", Text: g.text(kvTurnPrefill)},
			)
		}
		steps = append(steps,
			lipscript.Stmt{Op: lipscript.OpGenerate, S: "c", MaxTokens: kvTurnDecode, Temperature: sampleTemp, Seed: g.rng.Uint64()},
			lipscript.Stmt{Op: lipscript.OpRemove, S: "c"},
		)
		out[i] = request{
			idx: i, user: fmt.Sprintf("client-%02d", i%kvClients), lane: "normal",
			prompt: kvOpenPrefill + kvTurns*kvTurnPrefill,
			body:   mustScript(lipscript.Script{Steps: steps}),
		}
	}
	return out
}

// Frozen shapes of the daemon_http workload. The two prefills are drawn from
// a range: with one CPU and mostly one request in the daemon's kernel at a
// time, fixed lengths give every request the same virtual latency to the last
// digit, whatever the seed. The first stays within 128 tokens because a
// longer one takes a second scheduler step, and a median that sits on that
// edge jumps by 20 virtual ms from seed to seed.
const (
	daemonPrefillMin  = 96
	daemonPrefillMax  = 127
	daemonFirstDecode = 16
	daemonObsMin      = 24
	daemonObsMax      = 39
	daemonLastDecode  = 48
)

// drawLength draws a length in [lo, hi] as the sum of two uniform draws, a
// wide and a narrow one. Virtual latency is a step function of these
// lengths, so a percentile always sits on some length's step: the narrow
// draw thins both ends out, so that a tail percentile is not the longest
// length's step in every run, and hi-lo+1 is even, so that the median falls
// between two steps and not on one.
func drawLength(rng *rand.Rand, lo, hi int) int {
	narrow := (hi - lo + 1) / 3
	return lo + rng.Intn(hi-lo+1-narrow) + rng.Intn(narrow+1)
}

// genDaemonRequest builds request idx of one client: an agent program that
// prefills 96-127 tokens, samples 16, calls the daemon's search tool, folds
// the answer and 24-39 more tokens into the context and samples 48. It is a
// pure function of (seed, client, idx), so a time-bounded run needs no
// fixed request count and the checker can rebuild any request.
func genDaemonRequest(seed int64, client, idx int) request {
	g := newTextGen(seed*1_000_003 + int64(client)*100_003 + int64(idx))
	id := client<<20 | idx
	prefill := drawLength(g.rng, daemonPrefillMin, daemonPrefillMax)
	obs := drawLength(g.rng, daemonObsMin, daemonObsMax)
	return request{
		idx: idx, user: fmt.Sprintf("client-%d", client), lane: "normal",
		prompt: prefill + obs,
		body: mustScript(lipscript.Script{Steps: []lipscript.Stmt{
			{Op: lipscript.OpAnon, S: "c"},
			{Op: lipscript.OpPrefill, S: "c", Text: g.tag(id) + g.text(prefill-8)},
			{Op: lipscript.OpGenerate, S: "c", MaxTokens: daemonFirstDecode, Temperature: sampleTemp, Seed: g.rng.Uint64(), Out: "thought"},
			{Op: lipscript.OpCall, Tool: "search", Text: g.text(3), Out: "obs"},
			{Op: lipscript.OpPrefill, S: "c", Text: "${obs} " + g.text(obs)},
			// A generation may legally stop at once; the emit keeps every
			// job's output non-empty all the same.
			{Op: lipscript.OpEmit, Text: "thought: ${thought} answer: "},
			{Op: lipscript.OpGenerate, S: "c", MaxTokens: daemonLastDecode, Temperature: sampleTemp, Seed: g.rng.Uint64()},
			{Op: lipscript.OpRemove, S: "c"},
		}}),
	}
}

// vocabRequest is the first program a freshly spawned daemon runs: it
// prefills the whole dictionary, so the daemon's vocabulary equals
// newTokenizer's before any measured request arrives.
func vocabRequest() []byte {
	return mustScript(lipscript.Script{Steps: []lipscript.Stmt{
		{Op: lipscript.OpAnon, S: "c"},
		{Op: lipscript.OpPrefill, S: "c", Text: dictionaryText()},
		{Op: lipscript.OpEmit, Text: "ok"},
		{Op: lipscript.OpRemove, S: "c"},
	}})
}
