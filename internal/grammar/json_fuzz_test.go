package grammar

import (
	"encoding/json"
	"testing"
)

// fuzzSeeds is the seed corpus. It leans on the \uXXXX escape edge cases
// the incremental validator tightened (exactly four hex digits required):
// valid escapes in every hex case, surrogate pairs, and the truncated or
// non-hex forms that must kill the machine. Seeds are written with
// escaped backslashes, so "\\u0041" is the six JSON bytes \u0041.
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
	"01", // leading zero: the machine intentionally relaxes this
	"1.",
	"[1,]",
	"{\"a\"}",
	"tru",
	"nullx",
	"",
}

// jsonDepth reports the maximum container nesting of s, scanned
// byte-wise with string awareness (good enough for bounding the fuzz
// comparison; over-counting only skips a case).
func jsonDepth(s string) int {
	depth, max := 0, 0
	inStr, esc := false, false
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case esc:
			esc = false
		case inStr:
			if b == '\\' {
				esc = true
			} else if b == '"' {
				inStr = false
			}
		case b == '"':
			inStr = true
		case b == '{' || b == '[':
			depth++
			if depth > max {
				max = depth
			}
		case b == '}' || b == ']':
			depth--
		}
	}
	return max
}

// FuzzJSONMachine cross-checks the incremental byte-wise validator
// against encoding/json: any input the standard library accepts as a
// complete JSON document must also be accepted (and reported complete)
// by the machine, as long as it fits the machine's nesting bound. The
// reverse is not asserted: the machine intentionally relaxes the
// leading-zero rule. Run bounded in CI with -fuzztime 30s.
func FuzzJSONMachine(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m := NewJSONMachine()
		accepted := m.StepString(s)
		complete := m.Complete()
		if complete && !accepted {
			t.Fatalf("machine complete but dead on %q", s)
		}
		if accepted && m.mode == jmFail {
			t.Fatalf("machine accepted all bytes of %q yet reports failure", s)
		}
		// Dead machines must stay dead, and completeness must not
		// change after failure.
		if !accepted {
			if m.Step('1') || m.mode != jmFail || m.Complete() {
				t.Fatalf("dead machine revived on %q", s)
			}
		}
		if json.Valid([]byte(s)) && jsonDepth(s) <= maxJSONDepth {
			if !accepted {
				t.Fatalf("machine rejected valid JSON %q", s)
			}
			if !complete {
				t.Fatalf("machine did not recognize valid JSON %q as complete", s)
			}
		}
		// A clone must agree with its original byte for byte.
		m2 := NewJSONMachine()
		for i := 0; i < len(s); i++ {
			probe := m2.Clone()
			if probe.Step(s[i]) != m2.Step(s[i]) {
				t.Fatalf("clone diverged at byte %d of %q", i, s)
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
		"01":              true, // relaxed leading-zero rule
	}
	for _, s := range fuzzSeeds {
		m := NewJSONMachine()
		accepted := m.StepString(s)
		complete := accepted && m.Complete()
		if complete != wantComplete[s] {
			t.Errorf("%q: complete = %v, want %v", s, complete, wantComplete[s])
		}
	}
}
