package core

import (
	"sync"
	"time"
)

// This file is the kernel's process event layer. A process is no longer
// observable only through Wait()+Output(): it publishes lifecycle and
// incremental-output events to per-process subscriber rings, which is what
// makes a long-running LIP streamable over the v2 HTTP API (SSE) and
// cancellable with feedback. Publishers are clock actors; subscribers are
// ordinary goroutines (e.g. HTTP handlers) that must never park the
// virtual clock, so the hub uses plain Go synchronization and never blocks
// a publisher.

// EventKind classifies a process event.
type EventKind string

// Event kinds published by the kernel and the lipscript interpreter.
const (
	// EventStatus marks a lifecycle transition (running, cancelling, and
	// the terminal done/failed/cancelled, which carries Final=true).
	EventStatus EventKind = "status"
	// EventEmit is a chunk appended to the process output stream.
	EventEmit EventKind = "emit"
	// EventToken is an incremental generated-text chunk, published as the
	// token is committed (before the statement's final emit).
	EventToken EventKind = "token"
	// EventStatement brackets one interpreter statement (Phase
	// "start"/"end", Op and Index identify the statement).
	EventStatement EventKind = "statement"
	// EventKVPressure reports a KV memory daemon action touching this
	// process under GPU memory pressure: Phase is "offload" (KV pages
	// migrated to host) or "restore" (brought back on access), and with a
	// disk tier the further phases of kvd.Event; Text carries detail.
	EventKVPressure EventKind = "kv_pressure"
	// EventKVMigrate reports the kernel migration engine moving this
	// process's prefix family between GPU replicas: Phase is "migrate"
	// (pages copied over the interconnect) or "recompute" (prefix rebuilt
	// on the destination inside the call's batch); Text carries detail.
	EventKVMigrate EventKind = "kv_migrate"
	// EventKVShare reports the kernel's radix prefix cache attaching a
	// cached KV prefix to this process's pred by copy-on-write share
	// (Phase "attach"); Text carries the attached/total token counts.
	EventKVShare EventKind = "kv_share"
)

// Status is a process lifecycle state.
type Status string

// Process statuses. Running and Cancelling are live; the rest are
// terminal.
const (
	StatusRunning    Status = "running"
	StatusCancelling Status = "cancelling"
	StatusDone       Status = "done"
	StatusFailed     Status = "failed"
	StatusCancelled  Status = "cancelled"
)

// Terminal reports whether s is a terminal status.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// ProcEvent is one entry in a process's event stream. Seq is dense and
// strictly increasing per process; At is the virtual publish time.
type ProcEvent struct {
	Seq  int64         `json:"seq"`
	At   time.Duration `json:"at_ns"`
	PID  int           `json:"pid"`
	Kind EventKind     `json:"kind"`
	// Text is the chunk for emit/token events and the optional detail for
	// statement events.
	Text string `json:"text,omitempty"`
	// Op, Index, and Phase identify interpreter statement events.
	Op    string `json:"op,omitempty"`
	Index int    `json:"index,omitempty"`
	Phase string `json:"phase,omitempty"`
	// Status and Err describe lifecycle events; Final marks the last event
	// a process will ever publish.
	Status Status `json:"status,omitempty"`
	Err    string `json:"error,omitempty"`
	Final  bool   `json:"final,omitempty"`
}

// eventRingCap bounds the per-process replay history. Subscribers that
// attach more than eventRingCap events late observe a gap; the first
// retained Seq tells them how much they missed.
const eventRingCap = 512

// eventHub fans a process's events out to subscribers and retains a
// bounded replay ring so late subscribers (poll-then-stream clients) see
// history.
type eventHub struct {
	mu     sync.Mutex
	seq    int64
	ring   []ProcEvent
	closed bool
	subs   map[*Subscription]struct{}
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[*Subscription]struct{})}
}

// publish assigns the next sequence number, retains e in the ring, and
// hands it to every live subscriber. It never blocks: push only appends
// and pokes a non-blocking wake channel. Fan-out happens under h.mu so
// concurrent publishers (process threads, Cancel from HTTP goroutines)
// cannot deliver out of sequence order.
func (h *eventHub) publish(e ProcEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	e.Seq = h.seq
	h.ring = append(h.ring, e)
	if len(h.ring) > eventRingCap {
		h.ring = h.ring[len(h.ring)-eventRingCap:]
	}
	for s := range h.subs {
		s.push(e)
	}
}

// publishFinal publishes the terminal event and seals the hub in one
// critical section, so no late publisher (e.g. a Cancel racing the
// process exit) can slip an event in after Final=true. Sealed
// subscribers drain what they have and then see end-of-stream.
func (h *eventHub) publishFinal(e ProcEvent) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.seq++
	e.Seq = h.seq
	h.ring = append(h.ring, e)
	if len(h.ring) > eventRingCap {
		h.ring = h.ring[len(h.ring)-eventRingCap:]
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for s := range h.subs {
		s.push(e)
		//lint:allow maporder seal() is per-subscriber and commutative; cross-subscriber order carries no information
		subs = append(subs, s)
	}
	h.subs = make(map[*Subscription]struct{})
	h.mu.Unlock()
	for _, s := range subs {
		s.seal()
	}
}

// subscribe registers a new subscriber, replaying retained events with
// Seq >= from. A subscriber resuming from a point the ring has already
// evicted (from > 0 but below the first retained Seq) gets the gap
// recorded on the subscription, so transports can surface an explicit
// "events were lost" signal instead of silently skipping.
func (h *eventHub) subscribe(from int64) *Subscription {
	s := &Subscription{hub: h, notify: make(chan struct{}, 1)}
	h.mu.Lock()
	if from > 0 && len(h.ring) > 0 && h.ring[0].Seq > from {
		s.gapFrom, s.gapTo = from, h.ring[0].Seq-1
	}
	for _, e := range h.ring {
		if e.Seq >= from {
			s.pending = append(s.pending, e)
		}
	}
	if h.closed {
		s.done = true
	} else {
		h.subs[s] = struct{}{}
	}
	h.mu.Unlock()
	return s
}

// subPendingCap bounds a subscriber's undelivered backlog. A consumer
// that stalls without closing its connection loses the oldest pending
// events rather than growing server memory; the loss is visible as a gap
// in Seq (and recoverable through the replay ring via `?from=`).
const subPendingCap = 4096

// Subscription is one subscriber's view of a process event stream.
type Subscription struct {
	hub     *eventHub
	mu      sync.Mutex
	pending []ProcEvent
	head    int  // next index of pending to deliver
	done    bool // no further events will arrive
	notify  chan struct{}

	// gapFrom..gapTo is the Seq range the subscriber asked to resume
	// from but the replay ring no longer retains; both zero when the
	// resume point was still in the window.
	gapFrom, gapTo int64
}

// Gap reports the sequence range lost between the subscriber's requested
// resume point and the first retained event, and whether such a gap
// exists. Transports surface it as an explicit signal (the v2 SSE
// stream's "gap" event) so resuming clients know history was evicted
// rather than silently skipped.
func (s *Subscription) Gap() (from, to int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gapFrom, s.gapTo, s.gapTo > 0
}

func (s *Subscription) push(e ProcEvent) {
	s.mu.Lock()
	if len(s.pending)-s.head >= subPendingCap {
		// Backlog full (consumer stalled): drop the oldest event, and
		// compact once half the backing array is dead so memory stays
		// bounded by the cap rather than by total events published.
		s.pending[s.head] = ProcEvent{}
		s.head++
		if s.head*2 >= len(s.pending) {
			n := copy(s.pending, s.pending[s.head:])
			for i := n; i < len(s.pending); i++ {
				s.pending[i] = ProcEvent{}
			}
			s.pending = s.pending[:n]
			s.head = 0
		}
	}
	s.pending = append(s.pending, e)
	s.mu.Unlock()
	s.wake()
}

func (s *Subscription) seal() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.wake()
}

func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the next event, blocking until one arrives, the stream
// ends, or stop is closed. ok is false once no further events will be
// delivered. Next must not be called from a clock actor.
func (s *Subscription) Next(stop <-chan struct{}) (ProcEvent, bool) {
	for {
		s.mu.Lock()
		if s.head < len(s.pending) {
			e := s.pending[s.head]
			s.pending[s.head] = ProcEvent{} // release the delivered event's strings
			s.head++
			if s.head == len(s.pending) {
				s.pending = s.pending[:0]
				s.head = 0
			}
			s.mu.Unlock()
			return e, true
		}
		done := s.done
		s.mu.Unlock()
		if done {
			return ProcEvent{}, false
		}
		select {
		case <-s.notify:
		case <-stop:
			return ProcEvent{}, false
		}
	}
}

// Close detaches the subscription from its hub. Safe to call multiple
// times and after the hub has closed.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	s.seal()
}
