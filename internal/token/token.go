// Package token provides the vocabulary and tokenizer shared by the
// simulated model, the Symphony kernel, and the baselines.
//
// The tokenizer is intentionally simple — maximal runs of letters/digits,
// runs of whitespace, and single punctuation characters — but it is exactly
// reversible on valid UTF-8 (Decode(Encode(s)) == s), which the test suite
// relies on to detect KV-cache corruption: any reuse bug changes the visible
// context hash, which changes generated tokens, which changes decoded text.
// Each byte of s that is not valid UTF-8 encodes as the token "\uFFFD", as
// []rune(s) reads it, so in general Decode(Encode(s)) == string([]rune(s)).
package token

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// ID identifies a token within a Vocab. IDs are dense and start at 0 with
// the special tokens below.
type ID int32

// Special token IDs, present in every Vocab. IDs 1 (<bos>) and 3 (<unk>)
// are reserved but never produced, so they have no names.
const (
	PAD ID = iota // padding / absent
	_             // <bos>
	EOS           // end of sequence
	_             // <unk>

	numSpecials
)

// Vocab is a thread-safe interning table from token strings to dense IDs.
type Vocab struct {
	mu   sync.RWMutex
	strs []string
	ids  map[string]ID
}

// NewVocab returns a vocabulary pre-populated with the special tokens.
func NewVocab() *Vocab {
	v := &Vocab{ids: make(map[string]ID)}
	for _, s := range []string{"<pad>", "<bos>", "<eos>", "<unk>"} {
		v.add(s)
	}
	return v
}

// add assigns s the next ID. The caller holds the write lock and has
// checked that s is absent.
func (v *Vocab) add(s string) ID {
	v.strs = append(v.strs, s)
	id := ID(len(v.strs) - 1)
	v.ids[s] = id
	return id
}

// Intern returns the ID for s, assigning a fresh one if needed.
func (v *Vocab) Intern(s string) ID {
	v.mu.RLock()
	id, ok := v.ids[s]
	v.mu.RUnlock()
	if ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[s]; ok {
		return id
	}
	return v.add(s)
}

// String returns the surface string for id. IDs outside the interned range
// (the simulated model may emit any ID below its vocabulary bound) render
// as a stable pronounceable pseudo-word, so generated text is readable and
// decoding never fails. Negative IDs render as a diagnostic placeholder.
func (v *Vocab) String(id ID) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if id >= 0 && int(id) < len(v.strs) {
		return v.strs[id]
	}
	if id < 0 {
		return fmt.Sprintf("⟨tok%d⟩", int32(id))
	}
	return pseudoWord(uint32(id))
}

var (
	pseudoOnsets = [...]string{"b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "th"}
	pseudoVowels = [...]string{"a", "e", "i", "o", "u"}
)

// pseudoWord deterministically maps an ID to a short syllabic word plus a
// trailing space, e.g. 7133 -> "rilo ".
func pseudoWord(x uint32) string {
	// Mix so that consecutive IDs do not rhyme.
	x ^= x >> 13
	x *= 0x9e3779b1
	x ^= x >> 16
	syllables := 2 + int(x%2)
	var b []byte
	for i := 0; i < syllables; i++ {
		b = append(b, pseudoOnsets[x%uint32(len(pseudoOnsets))]...)
		x /= uint32(len(pseudoOnsets))
		b = append(b, pseudoVowels[x%uint32(len(pseudoVowels))]...)
		x /= uint32(len(pseudoVowels))
	}
	b = append(b, ' ')
	return string(b)
}

// Size reports the number of interned tokens.
//
//lint:allow testonly benchmark/'s tests read it, and benchmark/ stays frozen until ROADMAP item 1
func (v *Vocab) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.strs)
}

// IsSpecial reports whether id is one of the reserved control tokens.
func IsSpecial(id ID) bool { return id >= 0 && id < numSpecials }

// Tokenizer segments text against a Vocab.
type Tokenizer struct {
	v *Vocab
}

// NewTokenizer returns a tokenizer interning into v.
func NewTokenizer(v *Vocab) *Tokenizer { return &Tokenizer{v: v} }

// Vocab returns the underlying vocabulary.
func (t *Tokenizer) Vocab() *Vocab { return t.v }

type runeClass int

const (
	classWord runeClass = iota
	classSpace
	classPunct
)

func classify(r rune) runeClass {
	switch {
	case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
		return classWord
	case unicode.IsSpace(r):
		return classSpace
	default:
		return classPunct
	}
}

// asciiClass is classify of every ASCII rune.
var asciiClass = func() (t [utf8.RuneSelf]runeClass) {
	for r := range t {
		t[r] = classify(rune(r))
	}
	return t
}()

// classAt classifies the rune at text[i] and returns its width. A byte that
// is not valid UTF-8 reads as utf8.RuneError of width 1, as in []rune(text).
func classAt(text string, i int) (runeClass, int) {
	if b := text[i]; b < utf8.RuneSelf {
		return asciiClass[b], 1
	}
	r, w := utf8.DecodeRuneInString(text[i:])
	return classify(r), w
}

// tokenEnd returns the end of the token that starts at text[i]. ASCII runes
// past the first are classified inline, since classAt does not inline.
func tokenEnd(text string, i int) int {
	c, w := classAt(text, i)
	j := i + w
	if c == classPunct {
		return j
	}
	for j < len(text) {
		if b := text[j]; b < utf8.RuneSelf {
			if asciiClass[b] != c {
				break
			}
			j++
			continue
		}
		cj, wj := classAt(text, j)
		if cj != c {
			break
		}
		j += wj
	}
	return j
}

// Encode splits text into tokens: maximal word runs, maximal whitespace
// runs, and single punctuation runes. It never produces special tokens.
// Every byte that is not valid UTF-8 is a punctuation rune "\uFFFD".
//
// It walks text in place and looks each token up without copying it; only
// a token it interns is cloned, so the vocabulary never holds on to text.
// The read lock is held for the whole call until the first unknown token,
// and the write lock from there on.
func (t *Tokenizer) Encode(text string) []ID {
	if text == "" {
		return nil
	}
	n := 0
	for i := 0; i < len(text); i = tokenEnd(text, i) {
		n++
	}
	out := make([]ID, 0, n)
	v := t.v
	v.mu.RLock()
	writing := false
	for i := 0; i < len(text); {
		j := tokenEnd(text, i)
		s := text[i:j]
		if j == i+1 && s[0] >= utf8.RuneSelf { // one byte that is not valid UTF-8
			s = string(utf8.RuneError)
		}
		id, ok := v.ids[s]
		if !ok && !writing {
			v.mu.RUnlock()
			v.mu.Lock()
			writing = true
			id, ok = v.ids[s]
		}
		if !ok {
			id = v.add(strings.Clone(s))
		}
		out = append(out, id)
		i = j
	}
	if writing {
		v.mu.Unlock()
	} else {
		v.mu.RUnlock()
	}
	return out
}

// Decode reconstructs text from ids, skipping special tokens.
func (t *Tokenizer) Decode(ids []ID) string {
	var n int
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		if IsSpecial(id) {
			continue
		}
		s := t.v.String(id)
		parts = append(parts, s)
		n += len(s)
	}
	buf := make([]byte, 0, n)
	for _, s := range parts {
		buf = append(buf, s...)
	}
	return string(buf)
}
