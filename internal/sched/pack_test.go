package sched

import (
	"sort"
	"testing"
	"time"

	"repro/internal/model"
)

// fuzzCall decodes one call from five bytes: b[0] the lane (low two bits),
// decode (bit 2), speculation (bit 3, decode calls on the target only) and
// the model (bit 4: the draft model's own calls); b[1] and b[2] the tokens
// and how many of them remain; b[3] how long it waited before its last
// progress, b[4] how long since.
func fuzzCall(b []byte, now time.Duration, spec bool) *call {
	c := &call{
		model:  target,
		prio:   Priority(int(b[0]&3) - 1).clamp(),
		decode: b[0]&4 != 0,
		tokens: 1 + int(b[1])*3,
	}
	c.remaining = 1 + int(b[2])%c.tokens
	c.lastRun = now - time.Duration(b[4])*4*time.Millisecond
	c.queuedAt = c.lastRun - time.Duration(b[3])*time.Millisecond
	if b[0]&16 != 0 {
		c.model = draftModel
	} else if spec && c.decode && b[0]&8 != 0 {
		accept := make([]bool, c.tokens)
		for i := range accept {
			accept[i] = (i*int(b[1])+int(b[3]))%3 != 0
		}
		c.spec = &specState{draft: draftModel, accept: accept}
	}
	return c
}

// refCompute is the positions c computes if packed: the reference the
// fuzz target holds packStep's choices to.
func refCompute(c *call, quantum int) int {
	switch {
	case !c.decode:
		n := c.remaining
		if quantum > 0 && n > quantum {
			n = quantum
		}
		return n
	case c.spec != nil && c.remaining > 1:
		return min(DefaultSpecWindow, c.remaining-1)
	default:
		return 1
	}
}

// FuzzPackStep holds one iteration's packing to its rules over arbitrary
// active sets, lanes and waits, under both policies (fifo sliced to the
// chunk input, unbounded at 0): the first ranked call packs, the budget
// holds unless that first call alone exceeds it, the pass runs one model,
// no prompt slice sits beside a prompt of a more urgent submitted lane
// unless aging has promoted it to that lane, and nothing packs after a
// call the budget cut.
func FuzzPackStep(f *testing.F) {
	f.Add([]byte{0, 40, 200, 3, 0, 2, 90, 90, 0, 0, 6, 1, 0, 0, 0}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{2, 255, 255, 0, 10, 0, 60, 60, 5, 0, 13, 20, 3, 1, 1}, uint8(1), uint8(32), uint8(0))
	f.Add([]byte{0, 100, 99, 0, 0, 18, 10, 10, 0, 0, 2, 80, 2, 0, 70}, uint8(2), uint8(0), uint8(40))
	f.Add([]byte{0, 100, 99, 0, 0, 18, 10, 10, 0, 0, 2, 80, 2, 0, 70}, uint8(0), uint8(0), uint8(40))
	models := map[string]model.CostModel{target: model.A100Llama13B(), draftModel: model.A100Llama1B()}
	f.Fuzz(func(t *testing.T, data []byte, pol, slice, chunk uint8) {
		var prio PriorityPolicy = FIFO{SliceTokens: int(chunk)}
		if pol%4 != 0 {
			prio = &Lanes{SliceTokens: int(slice), MaxStepTokens: int(pol) * 3, AgeAfter: time.Duration(pol%4) * 50 * time.Millisecond}
		}
		const now = 10 * time.Second
		var active []*call
		for len(data) >= 5 && len(active) < 32 {
			active = append(active, fuzzCall(data[:5], now, prio.Quantum() > 0))
			data = data[5:]
		}
		if len(active) == 0 {
			return
		}
		p := packStep(active, now, prio, models)

		eff := func(c *call) Priority { return prio.Effective(c.prio, now-c.lastRun) }
		ranked := append([]*call(nil), active...)
		sort.SliceStable(ranked, func(i, j int) bool {
			if eff(ranked[i]) != eff(ranked[j]) {
				return eff(ranked[i]) < eff(ranked[j])
			}
			return ranked[i].queuedAt < ranked[j].queuedAt
		})
		if len(p.calls) == 0 || p.calls[0] != ranked[0] || p.model != ranked[0].model {
			t.Fatalf("first ranked call not packed first")
		}
		budget := models[p.model].MaxBatchTokens
		if sb := prio.StepTokens(); sb > 0 && sb < budget {
			budget = sb
		}
		if p.compute > budget && len(p.calls) > 1 {
			t.Fatalf("step computes %d positions in %d calls, budget %d", p.compute, len(p.calls), budget)
		}
		compute, retire := 0, 0
		for i, c := range p.calls {
			if c.model != p.model {
				t.Fatalf("one pass runs %s and %s", p.model, c.model)
			}
			compute += p.batch[i].NewTokens
			retire += p.progress[i]
		}
		if compute != p.compute || retire != p.retire {
			t.Fatalf("sums %d/%d, step says %d/%d", compute, retire, p.compute, p.retire)
		}

		// Walk the ranking: packed calls come in rank order, an unpacked
		// candidate is either a less urgent prompt the rule skips or the
		// call the budget cut, and after a cut nothing packs.
		quantum := prio.Quantum()
		isPrompt := func(c *call) bool { return !c.decode && refCompute(c, quantum) > 1 }
		promptLane, next, cut := Batch, 0, false
		for _, c := range ranked {
			if c.model != p.model {
				continue
			}
			if next < len(p.calls) && p.calls[next] == c {
				if cut {
					t.Fatalf("a call packed after the budget cut the step")
				}
				if isPrompt(c) {
					promptLane = min(promptLane, prio.Effective(c.prio, 0))
				}
				next++
				continue
			}
			if isPrompt(c) && eff(c) > promptLane {
				continue
			}
			if !cut && p.compute < budget && p.compute+refCompute(c, quantum) <= budget {
				t.Fatalf("a call that fits the budget was left out")
			}
			cut = true
		}
		if next != len(p.calls) {
			t.Fatalf("packed calls out of rank order")
		}
		for _, x := range p.calls {
			for _, y := range p.calls {
				if isPrompt(x) && isPrompt(y) && eff(x) > prio.Effective(y.prio, 0) {
					t.Fatalf("a %v-lane prompt beside a %v prompt", eff(x), y.prio)
				}
			}
		}
	})
}
