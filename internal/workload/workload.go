// Package workload generates the synthetic traffic of the paper's
// evaluation (§5): a retrieval-augmented-generation application over a
// fixed document corpus, with topic popularity following a Pareto
// (power-law) distribution and Poisson request arrivals. It also provides
// the traces used by the motivation experiments (multi-round chat, agent
// tool-calling, editor keystrokes).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// Pareto samples topic indices 0..n-1 with popularity weight of the k-th
// most popular topic proportional to (k+1)^(-1/index). A small Pareto
// index concentrates traffic on few topics (the paper: "Symphony
// outperforms ... when the Pareto index is small, i.e., when a few topics
// are queried frequently"); a large index approaches uniform.
type Pareto struct {
	n   int
	cdf []float64
}

// NewPareto builds the sampler for n topics at the given Pareto index.
func NewPareto(n int, index float64) *Pareto {
	if n <= 0 {
		panic("workload: Pareto over zero topics")
	}
	if index <= 0 {
		panic("workload: Pareto index must be positive")
	}
	p := &Pareto{n: n, cdf: make([]float64, n)}
	s := 1 / index
	var sum float64
	for k := 0; k < n; k++ {
		w := math.Pow(float64(k+1), -s)
		sum += w
		p.cdf[k] = sum
	}
	for k := range p.cdf {
		p.cdf[k] /= sum
	}
	return p
}

// Sample draws a topic index using rng.
func (p *Pareto) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, p.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Poisson generates exponentially distributed inter-arrival gaps for a
// given mean request rate.
type Poisson struct {
	ratePerSec float64
}

// NewPoisson returns an arrival process with the given mean rate.
func NewPoisson(ratePerSec float64) *Poisson {
	if ratePerSec <= 0 {
		panic("workload: nonpositive arrival rate")
	}
	return &Poisson{ratePerSec: ratePerSec}
}

// NextGap draws the time until the next arrival.
func (p *Poisson) NextGap(rng *rand.Rand) time.Duration {
	gap := rng.ExpFloat64() / p.ratePerSec
	return time.Duration(gap * float64(time.Second))
}

// Corpus is the document store of the RAG application: the paper uses 100
// documents of 3,000 tokens each. Text is deterministic per document so
// every run (and every serving system under comparison) sees identical
// token sequences.
type Corpus struct {
	docs []string
}

var corpusWords = strings.Fields(`
system design memory cache latency throughput batch schedule token model
kernel thread process file page table index query retrieval document
context attention transformer gradient vector matrix tensor compute
network protocol request response server client program interface
`)

// NewCorpus synthesizes n documents of approximately tokensPerDoc tokens.
func NewCorpus(n, tokensPerDoc int) *Corpus {
	c := &Corpus{docs: make([]string, n)}
	for i := range c.docs {
		rng := rand.New(rand.NewSource(int64(i)*2654435761 + 12345))
		var b strings.Builder
		fmt.Fprintf(&b, "Document %d. ", i)
		// Each loop iteration appends one word plus a space: two tokens
		// under the word/space tokenizer. Sentences add punctuation.
		words := tokensPerDoc/2 - 4
		for w := 0; w < words; w++ {
			b.WriteString(corpusWords[rng.Intn(len(corpusWords))])
			if w%12 == 11 {
				b.WriteString(". ")
			} else {
				b.WriteString(" ")
			}
		}
		c.docs[i] = b.String()
	}
	return c
}

// Doc returns document i's text.
func (c *Corpus) Doc(i int) string { return c.docs[i] }

// Question synthesizes the i-th user question about a topic. Questions are
// unique per (topic, i) so prefix caching can never reuse the suffix.
func Question(topic, i int) string {
	return fmt.Sprintf("Question %d on topic %d: summarize the key point?", i, topic)
}

// RAGRequest is one request of the Figure-3 workload.
type RAGRequest struct {
	Topic  int
	Arrive time.Duration
	Query  string
	MaxGen int
}

// RAGTrace generates a full arrival trace: n requests at the given rate
// with Pareto-distributed topics. maxGen is the per-request generation
// budget in tokens.
func RAGTrace(n int, ratePerSec, paretoIndex float64, topics, maxGen int, seed int64) []RAGRequest {
	rng := rand.New(rand.NewSource(seed))
	pareto := NewPareto(topics, paretoIndex)
	poisson := NewPoisson(ratePerSec)
	out := make([]RAGRequest, n)
	var t time.Duration
	for i := range out {
		t += poisson.NextGap(rng)
		topic := pareto.Sample(rng)
		out[i] = RAGRequest{
			Topic:  topic,
			Arrive: t,
			Query:  Question(topic, i),
			MaxGen: maxGen,
		}
	}
	return out
}

// ChatTurn is one user turn in a multi-round conversation (experiment E5).
type ChatTurn struct {
	User   string
	MaxGen int
}

// ChatTrace builds a conversation of rounds turns whose user messages are
// roughly turnTokens tokens each.
func ChatTrace(rounds, turnTokens, maxGen int, seed int64) []ChatTurn {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ChatTurn, rounds)
	for i := range out {
		var b strings.Builder
		fmt.Fprintf(&b, "Turn %d: ", i)
		for w := 0; w < turnTokens/2-2; w++ {
			b.WriteString(corpusWords[rng.Intn(len(corpusWords))])
			b.WriteString(" ")
		}
		out[i] = ChatTurn{User: b.String(), MaxGen: maxGen}
	}
	return out
}

// Keystroke is one editing event for the live-autocompletion experiment
// (E7): the user appends text at the end of the buffer, or deletes a run.
type Keystroke struct {
	Append string // non-empty: text typed
	Delete int    // >0: characters removed from the end
}

// EditorTrace generates a typing session over an initial buffer: mostly
// appends with occasional deletions, the access pattern §2 motivates.
func EditorTrace(events int, seed int64) []Keystroke {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Keystroke, events)
	for i := range out {
		if rng.Float64() < 0.1 && i > 0 {
			out[i] = Keystroke{Delete: 1 + rng.Intn(8)}
			continue
		}
		w := corpusWords[rng.Intn(len(corpusWords))]
		out[i] = Keystroke{Append: w + " "}
	}
	return out
}
