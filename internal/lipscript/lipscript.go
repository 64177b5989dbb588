// Package lipscript defines a declarative wire format for LLM Inference
// Programs and its interpreter.
//
// Elsewhere in this repository LIPs are Go closures, which keeps the
// paper's scheduling and caching interactions honest but cannot cross a
// network. lipscript is the complement: a JSON-encoded program — a
// sequence of statements over named KV sessions — that a client ships to
// the server, where the kernel interprets it. It also answers part of the
// paper's §6 security question: a declarative program enumerates exactly
// the system calls it makes, cannot run arbitrary computation, and is
// budgeted like any process.
//
// The format covers the workflows the paper motivates: prompt caching
// (open/create/lock named KV files), shared-prefix forking, generation
// with sampling parameters, server-side tool calls with results folded
// back into the context (${var} interpolation), and output emission.
package lipscript

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/lip"
	"repro/internal/sched"
	"repro/internal/token"
)

// Op enumerates statement kinds.
type Op string

// Statement operations.
const (
	OpAnon           Op = "anon"             // create an anonymous session
	OpCreate         Op = "create"           // create a named, shared KV file
	OpOpen           Op = "open"             // open a named KV file
	OpFork           Op = "fork"             // fork another session's KV
	OpLock           Op = "lock"             // advisory-lock the session's file
	OpUnlock         Op = "unlock"           // release the advisory lock
	OpPrefill        Op = "prefill"          // append text via pred
	OpPrefillIfEmpty Op = "prefill_if_empty" // prefill only when the file is empty (cache building)
	OpGenerate       Op = "generate"         // autoregressive generation
	OpCall           Op = "call"             // server-side tool call
	OpEmit           Op = "emit"             // append text to process output
	OpRemove         Op = "remove"           // remove the session's KV file
	OpLink           Op = "link"             // name the session's anonymous file
)

// Stmt is one statement. Fields are interpreted per Op; unknown fields are
// rejected at validation.
type Stmt struct {
	Op Op `json:"op"`
	// S names the session the statement targets.
	S string `json:"s,omitempty"`
	// From is the source session for fork.
	From string `json:"from,omitempty"`
	// Path is the KVFS path for create/open/link.
	Path string `json:"path,omitempty"`
	// Text is the prefill/emit text or tool arguments; ${var} references
	// interpolate earlier results.
	Text string `json:"text,omitempty"`
	// Tool names the kernel tool for call.
	Tool string `json:"tool,omitempty"`
	// Out stores the statement's result (generated or returned text) in a
	// variable.
	Out string `json:"out,omitempty"`
	// MaxTokens bounds generate.
	MaxTokens int `json:"max_tokens,omitempty"`
	// Temperature and Seed select sampling for generate (0 = greedy).
	Temperature float64 `json:"temperature,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	// Write requests write access on open.
	Write bool `json:"write,omitempty"`
}

// Script is a complete program.
type Script struct {
	// Budget caps pred tokens for the process; 0 = unlimited.
	Budget int64 `json:"budget,omitempty"`
	// Priority names the scheduling lane for every pred the program
	// issues: "interactive", "normal", or "batch". Empty defers to the
	// server's per-tenant default (normal when unconfigured).
	Priority string `json:"priority,omitempty"`
	Steps    []Stmt `json:"steps"`
}

// Parse decodes and validates a JSON script: one object, followed by
// nothing but whitespace.
func Parse(data []byte) (*Script, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Script
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("lipscript: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("lipscript: trailing data after the script object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks statement well-formedness without executing.
func (s *Script) Validate() error {
	if len(s.Steps) == 0 {
		return fmt.Errorf("lipscript: empty script")
	}
	if _, err := sched.ParsePriority(s.Priority); err != nil {
		return fmt.Errorf("lipscript: %w", err)
	}
	if s.Budget < 0 {
		return fmt.Errorf("lipscript: budget must not be negative")
	}
	sessions := map[string]bool{}
	for i, st := range s.Steps {
		fail := func(msg string) error {
			return fmt.Errorf("lipscript: step %d (%s): %s", i, st.Op, msg)
		}
		needSession := func() error {
			if st.S == "" {
				return fail("missing session")
			}
			if !sessions[st.S] {
				return fail("session not defined")
			}
			return nil
		}
		switch st.Op {
		case OpAnon:
			if st.S == "" {
				return fail("missing session name")
			}
			sessions[st.S] = true
		case OpCreate, OpOpen:
			if st.S == "" || st.Path == "" {
				return fail("needs session and path")
			}
			sessions[st.S] = true
		case OpFork:
			if st.S == "" || st.From == "" {
				return fail("needs session and from")
			}
			if !sessions[st.From] {
				return fail("fork source not defined")
			}
			sessions[st.S] = true
		case OpLock, OpUnlock:
			if err := needSession(); err != nil {
				return err
			}
		case OpRemove:
			if err := needSession(); err != nil {
				return err
			}
			// The interpreter drops the session with its file: a later
			// step must define the name again before it uses it.
			delete(sessions, st.S)
		case OpPrefill, OpPrefillIfEmpty:
			if err := needSession(); err != nil {
				return err
			}
			if st.Text == "" {
				return fail("missing text")
			}
		case OpGenerate:
			if err := needSession(); err != nil {
				return err
			}
			if st.MaxTokens <= 0 {
				return fail("max_tokens must be positive")
			}
			if st.Temperature < 0 {
				return fail("temperature must not be negative")
			}
		case OpCall:
			if st.Tool == "" {
				return fail("missing tool")
			}
		case OpEmit:
			if st.Text == "" {
				return fail("missing text")
			}
		case OpLink:
			if err := needSession(); err != nil {
				return err
			}
			if st.Path == "" {
				return fail("missing path")
			}
		default:
			return fail("unknown op")
		}
	}
	return nil
}

// WireBytes returns the script's serialized size, for network accounting.
func (s *Script) WireBytes() int {
	b, _ := json.Marshal(s)
	return len(b)
}

// Program compiles the script into a kernel-executable Program. The
// returned closure is the interpreter: pure syscall glue, no user code.
func (s *Script) Program() core.Program {
	return func(ctx *core.Ctx) error {
		sessions := map[string]*lip.Session{}
		vars := map[string]string{}
		expand := func(text string) string {
			return interpolate(text, vars)
		}
		for i, st := range s.Steps {
			fail := func(err error) error {
				return fmt.Errorf("lipscript: step %d (%s): %w", i, st.Op, err)
			}
			// Each statement is bracketed by start/end events so v2
			// subscribers can follow the program as it runs.
			ctx.PublishStatement(i, string(st.Op), "start", "")
			if err := execStmt(ctx, st, s.removedNext(i), sessions, vars, expand, fail); err != nil {
				return err
			}
			ctx.PublishStatement(i, string(st.Op), "end", "")
		}
		return nil
	}
}

// removedNext reports whether the statement after step i removes step
// i's session, so nothing step i leaves in its file is ever read.
func (s *Script) removedNext(i int) bool {
	return i+1 < len(s.Steps) && s.Steps[i+1].Op == OpRemove && s.Steps[i+1].S == s.Steps[i].S
}

// execStmt interprets one statement against the session and variable
// environment; removedNext says the next statement removes st's session.
func execStmt(ctx *core.Ctx, st Stmt, removedNext bool, sessions map[string]*lip.Session,
	vars map[string]string, expand func(string) string, fail func(error) error) error {
	switch st.Op {
	case OpAnon:
		f, err := ctx.KvAnon()
		if err != nil {
			return fail(err)
		}
		sessions[st.S] = lip.NewSession(ctx, f)
	case OpCreate:
		f, err := ctx.KvCreate(expand(st.Path), kvfs.WorldRead|kvfs.WorldWrite)
		if errors.Is(err, kvfs.ErrExist) {
			f, err = ctx.KvOpen(expand(st.Path), true)
		}
		if err != nil {
			return fail(err)
		}
		sessions[st.S] = lip.NewSession(ctx, f)
	case OpOpen:
		f, err := ctx.KvOpen(expand(st.Path), st.Write)
		if err != nil {
			return fail(err)
		}
		sessions[st.S] = lip.NewSession(ctx, f)
	case OpFork:
		src := sessions[st.From]
		fk, err := src.Fork()
		if err != nil {
			return fail(err)
		}
		sessions[st.S] = fk
	case OpLock:
		if err := ctx.KvLock(sessions[st.S].KV()); err != nil {
			return fail(err)
		}
	case OpUnlock:
		if err := ctx.KvUnlock(sessions[st.S].KV()); err != nil {
			return fail(err)
		}
	case OpPrefill:
		if _, err := sessions[st.S].Prefill(expand(st.Text)); err != nil {
			return fail(err)
		}
	case OpPrefillIfEmpty:
		if sessions[st.S].KV().Len() == 0 {
			if _, err := sessions[st.S].Prefill(expand(st.Text)); err != nil {
				return fail(err)
			}
		}
	case OpGenerate:
		sess := sessions[st.S]
		if _, ok := sess.Last(); !ok {
			// A fork of a built cache file carries no pending
			// distribution; re-prime from its tail context.
			if _, err := sess.Prefill(" "); err != nil {
				return fail(err)
			}
		}
		// Stream each committed token to subscribers so a v2
		// client observes generation incrementally.
		stream := func(t token.ID) {
			ctx.PublishToken(ctx.Detokenize([]token.ID{t}))
		}
		var sampler *lip.Sampler
		if st.Temperature > 0 {
			sampler = &lip.Sampler{Temperature: st.Temperature, Seed: st.Seed}
		}
		// A generation is a decode run: the executor advances it one
		// token — or one verified draft window, under -spec-decode — per
		// GPU iteration instead of paying a scheduling round trip per
		// token. A generation whose session the next statement removes is
		// terminal: its last token is sampled and streamed but never
		// committed, since no one reads the distribution after it.
		res, err := lip.Generate(sess, lip.GenOptions{
			MaxTokens: st.MaxTokens,
			Sampler:   sampler,
			Stream:    stream,
			Terminal:  removedNext,
		})
		if err != nil {
			return fail(err)
		}
		text := ctx.Detokenize(res.Tokens)
		if st.Out != "" {
			vars[st.Out] = text
		} else {
			ctx.Emit(text)
		}
	case OpCall:
		res, err := ctx.Call(st.Tool, expand(st.Text))
		if err != nil {
			return fail(err)
		}
		if st.Out != "" {
			vars[st.Out] = res
		}
	case OpEmit:
		ctx.Emit(expand(st.Text))
	case OpRemove:
		if err := sessions[st.S].Close(); err != nil {
			return fail(err)
		}
		delete(sessions, st.S)
	case OpLink:
		if err := ctx.KvLink(sessions[st.S].KV(), expand(st.Path)); err != nil {
			return fail(err)
		}
	}
	return nil
}

// Submit parses, validates, and starts a script on the kernel for user,
// returning the process.
func Submit(k *core.Kernel, user string, data []byte) (*core.Process, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	prio, _ := sched.ParsePriority(s.Priority) // validated by Parse
	return k.SubmitWith(user, s.Program(), core.SubmitOptions{Budget: s.Budget, Priority: prio}), nil
}

// RegisterTools registers the tools symphonyd and lip-run offer scripts,
// search (150 ms, "results for <args>") and weather (100 ms,
// "weather(<args>)=fair"), so a script answers the same on either.
func RegisterTools(k *core.Kernel) {
	k.RegisterTool("search", core.Tool{
		Latency: 150 * time.Millisecond,
		Fn:      func(args string) (string, error) { return "results for " + args, nil },
	})
	k.RegisterTool("weather", core.Tool{
		Latency: 100 * time.Millisecond,
		Fn:      func(args string) (string, error) { return fmt.Sprintf("weather(%s)=fair", args), nil },
	})
}

// interpolate replaces ${name} references with variable values; unknown
// names expand to the empty string.
func interpolate(text string, vars map[string]string) string {
	if !strings.Contains(text, "${") {
		return text
	}
	var b strings.Builder
	for {
		i := strings.Index(text, "${")
		if i < 0 {
			b.WriteString(text)
			return b.String()
		}
		j := strings.Index(text[i:], "}")
		if j < 0 {
			b.WriteString(text)
			return b.String()
		}
		b.WriteString(text[:i])
		b.WriteString(vars[text[i+2:i+j]])
		text = text[i+j+1:]
	}
}
