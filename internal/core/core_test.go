package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// newKernel builds a kernel with target+draft models on a fresh clock.
func newKernel() (*simclock.Clock, *Kernel) {
	clk := simclock.New()
	k := New(clk, Config{
		Models: map[string]*model.Model{
			"llama-13b": model.New(model.Llama13B()),
			"draft":     model.New(model.DraftLlama1B()),
		},
		DefaultModel: "llama-13b",
	})
	return clk, k
}

// drive runs fn as the simulation root and waits for quiescence.
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
	case <-time.After(30 * time.Second):
		t.Fatalf("simulation stalled at %v", clk.Now())
	}
	clk.Shutdown()
}

// greedyComplete is the canonical LIP: prefill a prompt, then generate n
// tokens greedily, emitting text.
func greedyComplete(prompt string, n int) Program {
	return func(ctx *Ctx) error {
		f, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		toks := ctx.Tokenize(prompt)
		pos := make([]int, len(toks))
		for i := range pos {
			pos[i] = i
		}
		dists, err := ctx.Pred(f, toks, pos)
		if err != nil {
			return err
		}
		cur := dists[len(dists)-1].Greedy()
		for i := 0; i < n && cur != token.EOS; i++ {
			ctx.EmitTokens([]token.ID{cur})
			d, err := ctx.Pred(f, []token.ID{cur}, []int{f.Len()})
			if err != nil {
				return err
			}
			cur = d[0].Greedy()
		}
		return f.Remove()
	}
}

func TestBasicCompletion(t *testing.T) {
	clk, k := newKernel()
	var out string
	var err error
	drive(t, clk, func() {
		p := k.Submit("alice", greedyComplete("the quick brown fox", 16))
		err = p.Wait()
		out = p.Output()
	})
	if err != nil {
		t.Fatalf("process error: %v", err)
	}
	if out == "" {
		t.Fatal("no output")
	}
	if clk.Now() == 0 {
		t.Fatal("generation took no virtual time")
	}
	st := k.Stats()
	if st.PredCalls < 2 || st.PredTokens == 0 || st.Processes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// All pages freed after the program removed its file.
	if st.FS.GPUPages != 0 {
		t.Fatalf("leaked %d pages", st.FS.GPUPages)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	gen := func() string {
		clk, k := newKernel()
		var out string
		drive(t, clk, func() {
			p := k.Submit("u", greedyComplete("deterministic context", 12))
			p.Wait()
			out = p.Output()
		})
		return out
	}
	a, b := gen(), gen()
	if a != b {
		t.Fatalf("nondeterministic output:\n%q\n%q", a, b)
	}
}

func TestForkReuseMatchesRecompute(t *testing.T) {
	// The KV-correctness property underlying the whole paper: generating
	// from a forked prefix must produce exactly the text that recomputing
	// the prefix from scratch produces.
	prefix := "shared system prompt with instructions"
	suffix := " user question one"
	gen := func(useFork bool) string {
		clk, k := newKernel()
		var out string
		drive(t, clk, func() {
			p := k.Submit("u", func(ctx *Ctx) error {
				full, _ := ctx.KvAnon()
				var target *kvfs.File
				ptoks := ctx.Tokenize(prefix)
				pos := make([]int, len(ptoks))
				for i := range pos {
					pos[i] = i
				}
				if useFork {
					if _, err := ctx.Pred(full, ptoks, pos); err != nil {
						return err
					}
					fk, err := ctx.KvFork(full)
					if err != nil {
						return err
					}
					target = fk
				} else {
					target = full
					if _, err := ctx.Pred(full, ptoks, pos); err != nil {
						return err
					}
				}
				stoks := ctx.Tokenize(suffix)
				spos := make([]int, len(stoks))
				for i := range spos {
					spos[i] = target.Len() + i
				}
				dists, err := ctx.Pred(target, stoks, spos)
				if err != nil {
					return err
				}
				cur := dists[len(dists)-1].Greedy()
				for i := 0; i < 8; i++ {
					ctx.EmitTokens([]token.ID{cur})
					d, err := ctx.Pred(target, []token.ID{cur}, []int{target.Len()})
					if err != nil {
						return err
					}
					cur = d[0].Greedy()
				}
				return nil
			})
			p.Wait()
			out = p.Output()
		})
		return out
	}
	if forked, direct := gen(true), gen(false); forked != direct {
		t.Fatalf("fork diverged from recompute:\n%q\n%q", forked, direct)
	}
}

func TestTokenBudgetEnforced(t *testing.T) {
	clk, k := newKernel()
	var err error
	drive(t, clk, func() {
		p := k.SubmitWith("u", greedyComplete("a b c d e f g h", 100), SubmitOptions{Budget: 10})
		err = p.Wait()
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestCancelStopsSyscalls(t *testing.T) {
	clk, k := newKernel()
	var err error
	drive(t, clk, func() {
		p := k.Submit("u", greedyComplete("long running generation", 10_000))
		clk.Sleep(2 * time.Second)
		p.Cancel()
		err = p.Wait()
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestPanicContained(t *testing.T) {
	clk, k := newKernel()
	var err error
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			panic("lip bug")
		})
		err = p.Wait()
	})
	if err == nil || !strings.Contains(err.Error(), "lip bug") {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelThreadsSharedPrefix(t *testing.T) {
	// Figure 2: fork the prefix per thread, generate in parallel, join.
	clk, k := newKernel()
	var err error
	var outputs [3]string
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			prefixFile, _ := ctx.KvAnon()
			ptoks := ctx.Tokenize("system message for everyone")
			pos := make([]int, len(ptoks))
			for i := range pos {
				pos[i] = i
			}
			if _, err := ctx.Pred(prefixFile, ptoks, pos); err != nil {
				return err
			}
			var threads []*Thread
			for i := 0; i < 3; i++ {
				i := i
				kv, err := ctx.KvFork(prefixFile)
				if err != nil {
					return err
				}
				th, err := ctx.Spawn(func(tc *Ctx) error {
					stoks := tc.Tokenize(" query " + string(rune('A'+i)))
					spos := make([]int, len(stoks))
					for j := range spos {
						spos[j] = kv.Len() + j
					}
					dists, err := tc.Pred(kv, stoks, spos)
					if err != nil {
						return err
					}
					cur := dists[len(dists)-1].Greedy()
					var got []token.ID
					for n := 0; n < 6; n++ {
						got = append(got, cur)
						d, err := tc.Pred(kv, []token.ID{cur}, []int{kv.Len()})
						if err != nil {
							return err
						}
						cur = d[0].Greedy()
					}
					outputs[i] = tc.Detokenize(got)
					return kv.Remove()
				})
				if err != nil {
					return err
				}
				threads = append(threads, th)
			}
			for _, th := range threads {
				if err := th.Join(); err != nil {
					return err
				}
			}
			return nil
		})
		err = p.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if outputs[0] == outputs[1] || outputs[1] == outputs[2] {
		t.Fatalf("branches produced identical text: %q", outputs)
	}
	// The three workers decode at once, so their preds share iterations.
	if avg := k.Stats().Sched.AvgBatch; avg <= 1 {
		t.Fatalf("average batch = %v, want the threads' preds batched together", avg)
	}
}

func TestToolCallChargesLatencyAndOffloads(t *testing.T) {
	clk, k := newKernel()
	k.RegisterTool("weather", Tool{
		Latency: 300 * time.Millisecond,
		Fn:      func(args string) (string, error) { return "sunny in " + args, nil },
	})
	var result string
	var err error
	var elapsedInCall time.Duration
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			f, _ := ctx.KvAnon()
			toks := ctx.Tokenize("check the weather please")
			pos := make([]int, len(toks))
			for i := range pos {
				pos[i] = i
			}
			if _, err := ctx.Pred(f, toks, pos); err != nil {
				return err
			}
			before := ctx.Clock().Now()
			r, err := ctx.Call("weather", "SF")
			if err != nil {
				return err
			}
			elapsedInCall = ctx.Clock().Now() - before
			result = r
			// The wait offloaded our KV; the next Pred restores it.
			if f.GPUResident() {
				return errors.New("file still GPU resident during post-call check")
			}
			rtoks := ctx.Tokenize(r)
			rpos := make([]int, len(rtoks))
			for i := range rpos {
				rpos[i] = f.Len() + i
			}
			if _, err := ctx.Pred(f, rtoks, rpos); err != nil {
				return err
			}
			if !f.GPUResident() {
				return errors.New("file not restored by Pred")
			}
			return nil
		})
		err = p.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if result != "sunny in SF" {
		t.Fatalf("tool result = %q", result)
	}
	if elapsedInCall != 300*time.Millisecond {
		t.Fatalf("call charged %v", elapsedInCall)
	}
	st := k.Stats()
	if st.ToolCalls != 1 {
		t.Fatalf("tool calls = %d", st.ToolCalls)
	}
	if st.RestoreTime == 0 {
		t.Fatal("no restore time recorded")
	}
}

// TestToolWaitSkipsFileASiblingPredHolds: the tool-wait offload moves
// only files no in-flight call has pinned. A sibling thread's pred holds
// the parent's file across the parent's 300 ms tool call, so the file
// stays on the GPU under the pred that is reading it.
func TestToolWaitSkipsFileASiblingPredHolds(t *testing.T) {
	clk, k := newKernel()
	k.RegisterTool("slow", Tool{Latency: 300 * time.Millisecond})
	var err error
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			toks := make([]token.ID, 4096)
			pos := make([]int, len(toks))
			for i := range toks {
				toks[i], pos[i] = token.ID(100+i), i
			}
			sibling, err := ctx.Spawn(func(tc *Ctx) error {
				_, err := tc.Pred(f, toks, pos)
				return err
			})
			if err != nil {
				return err
			}
			if err := ctx.Sleep(time.Millisecond); err != nil {
				return err
			}
			if f.Pins() == 0 {
				return errors.New("the sibling's pred is not in flight at the tool call")
			}
			if _, err := ctx.Call("slow", ""); err != nil {
				return err
			}
			if !f.GPUResident() {
				return errors.New("tool wait offloaded a file a sibling's pred held")
			}
			return sibling.Join()
		})
		err = p.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShortToolCallSkipsOffload(t *testing.T) {
	clk, k := newKernel()
	k.RegisterTool("fast", Tool{Latency: time.Millisecond})
	var resident bool
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			f, _ := ctx.KvAnon()
			if _, err := ctx.Pred(f, ctx.Tokenize("hi there"), []int{0, 1, 2}); err != nil {
				return err
			}
			if _, err := ctx.Call("fast", ""); err != nil {
				return err
			}
			resident = f.GPUResident()
			return nil
		})
		p.Wait()
	})
	if !resident {
		t.Fatal("short tool wait offloaded KV anyway")
	}
}

func TestUnknownToolAndModel(t *testing.T) {
	clk, k := newKernel()
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			if _, err := ctx.Call("nope", ""); !errors.Is(err, ErrNoTool) {
				t.Errorf("Call err = %v", err)
			}
			f, _ := ctx.KvAnon()
			if _, err := ctx.PredModel("nope", f, []token.ID{5}, []int{0}); !errors.Is(err, ErrNoModel) {
				t.Errorf("PredModel err = %v", err)
			}
			if _, err := ctx.Pred(f, nil, nil); err == nil {
				t.Error("empty pred accepted")
			}
			return nil
		})
		p.Wait()
	})
}

// TestPredRejectsMismatchedPositions hands pred 1,072 tokens and 10
// positions, on a kernel whose prefix cache holds the prompt's family and
// on one without a cache. Each must return an error, not panic, and do so
// before it pins the file or charges the process or the user.
func TestPredRejectsMismatchedPositions(t *testing.T) {
	toks := make([]token.ID, 1072)
	for i := range toks {
		toks[i] = token.ID(100 + i%500)
	}
	positions := make([]int, 10)
	for i := range positions {
		positions[i] = i
	}
	for _, tc := range []struct {
		name   string
		kernel func() (*simclock.Clock, *Kernel)
		cached bool
	}{
		{"prefix-cache", func() (*simclock.Clock, *Kernel) { return newPrefixKernel(64, 0) }, true},
		{"no-cache", newKernel, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk, k := tc.kernel()
			if tc.cached {
				insertPrompt(t, k, toks)
			}
			var (
				proc     *Process
				err      error
				panicked any
				pins     int
			)
			drive(t, clk, func() {
				proc = k.Submit("u", func(ctx *Ctx) error {
					f, ferr := ctx.KvAnon()
					if ferr != nil {
						return ferr
					}
					func() {
						defer func() { panicked = recover() }()
						_, err = ctx.Pred(f, toks, positions)
					}()
					pins = f.Pins()
					return nil
				})
				proc.Wait()
			})
			if panicked != nil {
				t.Errorf("pred panicked: %v", panicked)
			} else if err == nil {
				t.Error("pred with 1,072 tokens and 10 positions accepted")
			}
			if pins != 0 {
				t.Errorf("file pins = %d after the rejected pred, want 0", pins)
			}
			if got := proc.PredTokens(); got != 0 {
				t.Errorf("process charged %d pred tokens, want 0", got)
			}
			if got := k.UserUsage("u"); got != 0 {
				t.Errorf("user charged %d pred tokens, want 0", got)
			}
		})
	}
}

func TestIPCPingPong(t *testing.T) {
	clk, k := newKernel()
	var got string
	drive(t, clk, func() {
		ponger := k.Submit("u", func(ctx *Ctx) error {
			msg, err := ctx.Recv()
			if err != nil {
				return err
			}
			return ctx.Send(msg.From, "pong:"+msg.Payload)
		})
		pinger := k.Submit("u", func(ctx *Ctx) error {
			if err := ctx.Send(ponger.PID(), "ping"); err != nil {
				return err
			}
			msg, err := ctx.Recv()
			if err != nil {
				return err
			}
			got = msg.Payload
			return nil
		})
		pinger.Wait()
		ponger.Wait()
	})
	if got != "pong:ping" {
		t.Fatalf("got %q", got)
	}
	if k.Stats().IPCMessages != 2 {
		t.Fatalf("ipc messages = %d", k.Stats().IPCMessages)
	}
}

func TestSendToDeadProcessFails(t *testing.T) {
	clk, k := newKernel()
	drive(t, clk, func() {
		dead := k.Submit("u", func(ctx *Ctx) error { return nil })
		dead.Wait()
		alive := k.Submit("u", func(ctx *Ctx) error {
			if err := ctx.Send(dead.PID(), "hello?"); !errors.Is(err, ErrNoProcess) {
				t.Errorf("Send err = %v", err)
			}
			return nil
		})
		alive.Wait()
	})
}

func TestKvLockSerializesProcesses(t *testing.T) {
	clk, k := newKernel()
	var order []int
	drive(t, clk, func() {
		shared, err := k.FS().Create("shared.kv", "u", kvfs.ModeShared)
		if err != nil {
			t.Error(err)
			return
		}
		prog := func(id int, hold time.Duration) Program {
			return func(ctx *Ctx) error {
				if err := ctx.KvLock(shared); err != nil {
					return err
				}
				order = append(order, id)
				ctx.Sleep(hold)
				order = append(order, id)
				return ctx.KvUnlock(shared)
			}
		}
		p1 := k.Submit("u", prog(1, 50*time.Millisecond))
		clk.Sleep(time.Millisecond)
		p2 := k.Submit("u", prog(2, 10*time.Millisecond))
		p1.Wait()
		p2.Wait()
	})
	want := []int{1, 1, 2, 2}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("lock did not serialize: %v", order)
		}
	}
}

// TestKvLockOfExitedHolderIsErrLocked: a holder that exits still holding a
// lock will never unlock it, so a second process's KvLock must end in
// kvfs.ErrLocked at the instant nothing else can run — virtual time 0
// here — instead of waiting for ever.
func TestKvLockOfExitedHolderIsErrLocked(t *testing.T) {
	clk, k := newKernel()
	var lockErr error
	var at time.Duration
	drive(t, clk, func() {
		shared, err := k.FS().Create("shared.kv", "u", kvfs.ModeShared)
		if err != nil {
			t.Error(err)
			return
		}
		holder := k.Submit("u", func(ctx *Ctx) error { return ctx.KvLock(shared) })
		if err := holder.Wait(); err != nil {
			t.Errorf("holder: %v", err)
		}
		waiter := k.Submit("u", func(ctx *Ctx) error {
			lockErr = ctx.KvLock(shared)
			at = clk.Now()
			return lockErr
		})
		_ = waiter.Wait()
	})
	if !errors.Is(lockErr, kvfs.ErrLocked) {
		t.Fatalf("KvLock returned %v, want kvfs.ErrLocked", lockErr)
	}
	if at != 0 {
		t.Fatalf("KvLock returned at %v, want 0", at)
	}
}

// TestKvLockCancelledWhileHolderSleeps: a KvLock waiter cancelled while
// the holder sleeps returns ErrCancelled at the cancel instant.
func TestKvLockCancelledWhileHolderSleeps(t *testing.T) {
	clk, k := newKernel()
	const cancelAt = 5*time.Millisecond + 300*time.Microsecond
	var lockErr error
	var at time.Duration
	drive(t, clk, func() {
		shared, err := k.FS().Create("shared.kv", "u", kvfs.ModeShared)
		if err != nil {
			t.Error(err)
			return
		}
		locked := clk.NewEvent()
		holder := k.Submit("u", func(ctx *Ctx) error {
			if err := ctx.KvLock(shared); err != nil {
				return err
			}
			locked.Fire()
			if err := ctx.Sleep(time.Second); err != nil {
				return err
			}
			return ctx.KvUnlock(shared)
		})
		if err := locked.Wait(); err != nil {
			t.Errorf("holder never locked: %v", err)
		}
		waiter := k.Submit("u", func(ctx *Ctx) error {
			lockErr = ctx.KvLock(shared)
			at = clk.Now()
			return lockErr
		})
		if err := clk.Sleep(cancelAt); err != nil {
			t.Errorf("driver sleep: %v", err)
		}
		waiter.Cancel()
		_ = waiter.Wait()
		if err := holder.Wait(); err != nil {
			t.Errorf("holder: %v", err)
		}
	})
	if !errors.Is(lockErr, ErrCancelled) {
		t.Fatalf("KvLock returned %v, want ErrCancelled", lockErr)
	}
	if at != cancelAt {
		t.Fatalf("KvLock returned at %v, want the cancel instant %v", at, cancelAt)
	}
}

func TestAccessControlThroughCtx(t *testing.T) {
	clk, k := newKernel()
	drive(t, clk, func() {
		pa := k.Submit("alice", func(ctx *Ctx) error {
			f, err := ctx.KvCreate("alice-private.kv", kvfs.ModePrivate)
			if err != nil {
				return err
			}
			_, err = ctx.Pred(f, ctx.Tokenize("secret data"), []int{0, 1, 2})
			return err
		})
		if err := pa.Wait(); err != nil {
			t.Error(err)
			return
		}
		pb := k.Submit("bob", func(ctx *Ctx) error {
			if _, err := ctx.KvOpen("alice-private.kv", false); !errors.Is(err, kvfs.ErrPerm) {
				t.Errorf("bob read alice's file: %v", err)
			}
			return nil
		})
		pb.Wait()
	})
}

func TestPredEnforcesWriteAccess(t *testing.T) {
	// The paper's §4.2 example: a system-prompt file readable by every LIP
	// but writable only by its owner. Reading (forking) must work for
	// everyone; pred-ing into the shared file must not.
	clk, k := newKernel()
	drive(t, clk, func() {
		pa := k.Submit("alice", func(ctx *Ctx) error {
			f, err := ctx.KvCreate("sysmsg.kv", kvfs.ModeShared)
			if err != nil {
				return err
			}
			_, err = ctx.Pred(f, ctx.Tokenize("shared system message"), []int{0, 1, 2, 3, 4})
			return err
		})
		if err := pa.Wait(); err != nil {
			t.Error(err)
			return
		}
		pb := k.Submit("bob", func(ctx *Ctx) error {
			f, err := ctx.KvOpen("sysmsg.kv", false)
			if err != nil {
				return err
			}
			if _, err := ctx.Pred(f, []token.ID{9}, []int{f.Len()}); !errors.Is(err, kvfs.ErrPerm) {
				t.Errorf("foreign pred on read-only file: %v", err)
			}
			fork, err := ctx.KvFork(f)
			if err != nil {
				t.Errorf("fork of world-readable file: %v", err)
				return nil
			}
			// The fork is bob's own: writing it is fine.
			if _, err := ctx.Pred(fork, []token.ID{9}, []int{fork.Len()}); err != nil {
				t.Errorf("pred on own fork: %v", err)
			}
			return fork.Remove()
		})
		pb.Wait()
	})
}

// exited reports whether p has exited.
func exited(p *Process) bool {
	_, ok := p.EndedAt()
	return ok
}

func TestProcessRuntimeAndDone(t *testing.T) {
	clk, k := newKernel()
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			return ctx.Sleep(2 * time.Second)
		})
		if exited(p) {
			t.Error("process done immediately")
		}
		p.Wait()
		if !exited(p) {
			t.Error("process not done after Wait")
		}
		if p.Runtime() != 2*time.Second {
			t.Errorf("runtime = %v", p.Runtime())
		}
	})
}

func TestKvSyscallSurface(t *testing.T) {
	// Exercises the full KVFS syscall surface end to end: extract, merge,
	// link, list, remove, plus identity accessors.
	clk, k := newKernel()
	if k.Clock() != clk || k.Scheduler() == nil || k.Tokenizer() == nil {
		t.Fatal("kernel accessors broken")
	}
	drive(t, clk, func() {
		p := k.Submit("carol", func(ctx *Ctx) error {
			if ctx.User() != "carol" || ctx.PID() <= 0 {
				t.Errorf("identity: user=%q pid=%d", ctx.User(), ctx.PID())
			}
			a, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			if _, err := prefill(ctx, a, "alpha beta gamma delta"); err != nil {
				return err
			}
			// Extract a pruned view, merge it with the original.
			ex, err := ctx.KvExtract(a, []int{0, 2, 4})
			if err != nil {
				return err
			}
			if ex.Len() != 3 || !ex.Approx() {
				t.Errorf("extract len=%d approx=%v", ex.Len(), ex.Approx())
			}
			mg, err := ctx.KvMerge(a, ex)
			if err != nil {
				return err
			}
			if mg.Len() != a.Len()+3 {
				t.Errorf("merge len = %d", mg.Len())
			}
			// Name it, list it, remove it.
			if err := ctx.KvLink(mg, "carol/merged.kv"); err != nil {
				return err
			}
			if got := ctx.KvList("carol/"); len(got) != 1 || got[0] != "carol/merged.kv" {
				t.Errorf("KvList = %v", got)
			}
			if err := ctx.KvRemove("carol/merged.kv"); err != nil {
				return err
			}
			if got := ctx.KvList("carol/"); len(got) != 0 {
				t.Errorf("KvList after remove = %v", got)
			}
			// TryRecv on an empty mailbox.
			if _, ok := ctx.TryRecv(); ok {
				t.Error("TryRecv invented a message")
			}
			if err := ctx.Send(ctx.PID(), "self"); err != nil {
				return err
			}
			if msg, ok := ctx.TryRecv(); !ok || msg.Payload != "self" {
				t.Errorf("TryRecv = %+v %v", msg, ok)
			}
			a.Remove()
			return ex.Remove()
		})
		if err := p.Wait(); err != nil {
			t.Error(err)
		}
		if p.user != "carol" {
			t.Errorf("process user = %q", p.user)
		}
		if p.PredTokens() == 0 {
			t.Error("no pred tokens accounted")
		}
	})
	if got := k.Stats().FS.GPUPages; got != 0 {
		t.Fatalf("leaked %d pages", got)
	}
}

func TestDraftModelPred(t *testing.T) {
	clk, k := newKernel()
	var draftTime, targetTime time.Duration
	drive(t, clk, func() {
		p := k.Submit("u", func(ctx *Ctx) error {
			f, _ := ctx.KvAnon()
			toks := ctx.Tokenize("speculate on this prompt")
			pos := []int{0, 1, 2, 3, 4, 5, 6}[:len(toks)]
			start := ctx.Clock().Now()
			if _, err := ctx.PredModel("draft", f, toks, pos); err != nil {
				return err
			}
			draftTime = ctx.Clock().Now() - start

			g, _ := ctx.KvAnon()
			start = ctx.Clock().Now()
			if _, err := ctx.Pred(g, toks, pos); err != nil {
				return err
			}
			targetTime = ctx.Clock().Now() - start
			return nil
		})
		p.Wait()
	})
	if draftTime >= targetTime {
		t.Fatalf("draft (%v) not cheaper than target (%v)", draftTime, targetTime)
	}
}
