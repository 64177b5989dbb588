package grammar

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// fuzzSeeds is the seed corpus. It leans on the \uXXXX escape edge cases
// (exactly four hex digits required): valid escapes in every hex case,
// surrogate pairs, and the truncated or non-hex forms that end viability.
// Seeds are written with escaped backslashes, so "\\u0041" is the six
// JSON bytes \u0041.
var fuzzSeeds = []string{
	// \uXXXX edge cases.
	"\"\\u0041\"",             // uppercase hex
	"\"\\uffff\"",             // lowercase hex
	"\"\\uFFFF\"",             // uppercase hex
	"\"\\uAbCd\"",             // mixed-case hex
	"\"\\u0020\"",             // escaped space
	"\"\\u0000\"",             // escaped NUL
	"\"\\uD834\\uDD1E\"",      // surrogate pair
	"\"\\ud800\"",             // lone surrogate (structurally valid JSON)
	"\"\\uZZZZ\"",             // non-hex: invalid
	"\"\\u12\"",               // terminating quote inside the escape: invalid
	"\"\\u123g\"",             // hex dies on the fourth digit
	"\"\\u\"",                 // no hex at all
	"\"\\u123",                // truncated input mid-escape
	"{\"k\":\"\\uABCDtail\"}", // escape followed by ordinary bytes
	"[\"\\u0031\",1,\"\\u00e9\"]",
	"\"\\\\u1234\"", // escaped backslash, not a unicode escape
	// Other escapes and string forms.
	"\"\\n\\t\\r\\b\\f\\/\\\\\\\"\"",
	"\"\\x41\"", // invalid escape letter
	"\"\"",
	"\"unterminated",
	// Structure, numbers, literals, whitespace.
	"{}",
	"[]",
	"{\"a\":[1,2.5,-3e+7,0],\"b\":{\"c\":null},\"d\":[true,false]}",
	" { \"a\" : 1 } ",
	"-0.5e-2",
	"01", // leading zero: not a number
	"1.",
	"[1,]",
	"{\"a\"}",
	"tru",
	"nullx",
	"",
}

// decoderVerdict walks s with a json.Decoder, a second route through the
// standard library: s is viable unless the decoder reports a syntax error
// or something other than whitespace follows its first value, and complete
// when that value decoded.
func decoderVerdict(t *testing.T, s string) (viable, complete bool) {
	d := json.NewDecoder(strings.NewReader(s))
	d.UseNumber()
	var v any
	err := d.Decode(&v)
	var serr *json.SyntaxError
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return true, false
	case errors.As(err, &serr):
		return false, false
	case err != nil:
		t.Fatalf("decoding %q: %v", s, err)
	}
	if strings.TrimLeft(s[d.InputOffset():], " \t\r\n") != "" {
		return false, false
	}
	return true, true
}

// FuzzJSONMachine cross-checks JSONConstraint's check against a
// json.Decoder walk on every prefix of the input: viableJSON must agree
// with the decoder on whether the prefix extends to a document, and
// json.Valid, which Done reports, on whether it is one. Run bounded in CI
// with -fuzztime 30s.
func FuzzJSONMachine(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 128 {
			s = s[:128] // every prefix is checked, so bound the work
		}
		for i := 0; i <= len(s); i++ {
			p := s[:i]
			viable, complete := decoderVerdict(t, p)
			if got := viableJSON([]byte(p)); got != viable {
				t.Fatalf("%q: viable = %v, decoder says %v", p, got, viable)
			}
			if got := json.Valid([]byte(p)); got != complete {
				t.Fatalf("%q: complete = %v, decoder says %v", p, got, complete)
			}
		}
	})
}

// TestFuzzSeedCorpus pins the expected verdict for every seed, so the
// corpus stays meaningful even when no fuzzing budget is available.
func TestFuzzSeedCorpus(t *testing.T) {
	wantComplete := map[string]bool{
		"\"\\u0041\"":                    true,
		"\"\\uffff\"":                    true,
		"\"\\uFFFF\"":                    true,
		"\"\\uAbCd\"":                    true,
		"\"\\u0020\"":                    true,
		"\"\\u0000\"":                    true,
		"\"\\uD834\\uDD1E\"":             true,
		"\"\\ud800\"":                    true,
		"{\"k\":\"\\uABCDtail\"}":        true,
		"[\"\\u0031\",1,\"\\u00e9\"]":    true,
		"\"\\\\u1234\"":                  true,
		"\"\\n\\t\\r\\b\\f\\/\\\\\\\"\"": true,
		"\"\"":                           true,
		"{}":                             true,
		"[]":                             true,
		"{\"a\":[1,2.5,-3e+7,0],\"b\":{\"c\":null},\"d\":[true,false]}": true,
		" { \"a\" : 1 } ": true,
		"-0.5e-2":         true,
		"01":              false, // a number has no leading zero
	}
	for _, s := range fuzzSeeds {
		accepted, done := feed(s)
		if complete := accepted && done; complete != wantComplete[s] {
			t.Errorf("%q: complete = %v, want %v", s, complete, wantComplete[s])
		}
	}
}
