// Package bench holds the repository-level benchmark harness: one
// testing.B benchmark per registered experiment (see
// docs/EXPERIMENTS.md), plus micro-benchmarks for the substrates. The
// per-layer benchmarks of the pred path live with their layers
// (internal/core, internal/model, internal/sched).
//
// Every number here is wall clock: an experiment benchmark times one
// complete simulated -quick run, so ns/op is what the simulator costs on
// the host. The virtual-time results the paper's claims rest on are the
// tables and BENCH_*.json artifacts symphony-bench writes. Run with:
//
//	go test -run '^$' -bench . -benchtime 1x . ./internal/core ./internal/model ./internal/sched
package bench

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/grammar"
	"repro/internal/kvfs"
	"repro/internal/token"
)

// BenchmarkSweep runs every registered experiment on its -quick grid.
func BenchmarkSweep(b *testing.B) {
	for _, s := range experiments.Sweeps {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Run(experiments.Options{Quick: true})
			}
		})
	}
}

// --- substrate micro-benchmarks (wall clock) ---

func benchFS() *kvfs.FS {
	return kvfs.NewFS(kvfs.Config{PageTokens: 16, GPUBytes: 1 << 30, HostBytes: 1 << 30, BytesPerToken: 1})
}

// BenchmarkKVFSAppend measures raw KV append throughput.
func BenchmarkKVFSAppend(b *testing.B) {
	fs := benchFS()
	f := fs.CreateAnon("bench")
	toks := make([]token.ID, 16)
	pos := make([]int, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pos {
			pos[j] = f.Len() + j
		}
		if _, err := f.Append(toks, pos); err != nil {
			f.Remove()
			f = fs.CreateAnon("bench")
		}
	}
}

// BenchmarkKVFSFork measures copy-on-write fork cost against its
// alternative, a deep copy via Extract.
func BenchmarkKVFSFork(b *testing.B) {
	fs := benchFS()
	f := fs.CreateAnon("bench")
	toks := make([]token.ID, 4096)
	pos := make([]int, 4096)
	for i := range pos {
		pos[i] = i
	}
	f.Append(toks, pos)
	b.Run("cow-fork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := f.Fork("bench")
			if err != nil {
				b.Fatal(err)
			}
			c.Remove()
		}
	})
	b.Run("deep-copy", func(b *testing.B) {
		idx := make([]int, 4096)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < b.N; i++ {
			c, err := f.Extract("bench", idx)
			if err != nil {
				b.Fatal(err)
			}
			c.Remove()
		}
	})
}

// BenchmarkRegexCompile measures compiling a typical pattern: parsing,
// simplifying and compiling it with regexp/syntax, and marking the
// instructions from which a match is reachable.
func BenchmarkRegexCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := grammar.CompileRegex(`v\d+\.\d+\.\d+(-[a-z]+)?`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONMachine measures JSON-constrained decoding's check: a
// JSONConstraint accepts a 60-byte document one byte token at a time, and
// each Accept rescans the text so far with encoding/json's scanner.
func BenchmarkJSONMachine(b *testing.B) {
	doc := `{"a":[1,2,3],"b":{"c":"hello world","d":true},"e":-1.5e3}`
	words := make([]string, len(doc))
	for i := range doc {
		words[i] = doc[i : i+1]
	}
	v := token.NewVocab()
	lex := grammar.NewLexicon(v, words)
	toks := make([]token.ID, len(words))
	for i, w := range words {
		toks[i] = v.Intern(w)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := grammar.NewJSONConstraint(lex)
		for _, t := range toks {
			if err := c.Accept(t); err != nil {
				b.Fatal(err)
			}
		}
		if !c.Done() {
			b.Fatal("rejected valid doc")
		}
	}
}
