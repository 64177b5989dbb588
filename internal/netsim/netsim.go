// Package netsim models the client↔server network that the paper's §2.2
// argues prompt-serving systems cross too often. A Link charges virtual
// time for propagation (half the RTT per direction) plus serialization at
// a configured bandwidth; a round trip is two crossings. Symphony pays one
// round trip per program; prompt-serving baselines pay one per request and
// two more per client-side function call.
package netsim

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// Link is a symmetric client↔server network path.
type Link struct {
	clk *simclock.Clock
	// RTT is the bare round-trip propagation delay.
	RTT time.Duration
	// BytesPerSec is the serialization bandwidth in each direction.
	// Zero means infinite bandwidth.
	BytesPerSec int64
}

// DefaultRTT is a typical same-region datacenter↔client round trip.
const DefaultRTT = 25 * time.Millisecond

// DefaultBandwidth is a typical WAN client link.
const DefaultBandwidth = 12_500_000 // 100 Mbit/s

// New returns a link with the given RTT and bandwidth on clock clk.
func New(clk *simclock.Clock, rtt time.Duration, bytesPerSec int64) *Link {
	return &Link{clk: clk, RTT: rtt, BytesPerSec: bytesPerSec}
}

// Default returns a link with typical WAN parameters.
func Default(clk *simclock.Clock) *Link {
	return New(clk, DefaultRTT, DefaultBandwidth)
}

// OneWay charges the calling actor for sending n bytes in one direction.
func (l *Link) OneWay(n int) error {
	d := l.RTT / 2
	if l.BytesPerSec > 0 {
		d += time.Duration(float64(n) / float64(l.BytesPerSec) * float64(time.Second))
	}
	if d == 0 {
		return nil
	}
	return l.clk.Sleep(d)
}

// TransferTime reports the one-way time for n bytes without sleeping.
func (l *Link) TransferTime(n int) time.Duration {
	d := l.RTT / 2
	if l.BytesPerSec > 0 {
		d += time.Duration(float64(n) / float64(l.BytesPerSec) * float64(time.Second))
	}
	return d
}

// Interconnect defaults: an NVLink/InfiniBand-class intra-cluster fabric,
// three orders of magnitude faster than the WAN client link above.
const (
	// DefaultInterconnectRTT is a same-rack GPU-to-GPU round trip.
	DefaultInterconnectRTT = 10 * time.Microsecond
	// DefaultInterconnectGbps is an IB-HDR-class 100 Gbit/s link.
	DefaultInterconnectGbps = 100.0
)

// Interconnect is the replica-to-replica GPU fabric KV migration crosses:
// the same RTT+bandwidth timing model as a client Link, but sized for
// NVLink/IB-class hardware and addressed in fixed-size KV pages rather
// than request bytes. One migration is one one-way crossing: half the RTT
// of propagation plus serialization of every page at link bandwidth.
type Interconnect struct {
	link *Link

	mu    sync.Mutex
	fault func(pages int, bytes int64) TransferFault
}

// TransferFault is an injected outcome for one fabric transfer: Stall is
// extra virtual latency charged to the transferring actor before the
// outcome resolves, and Err (when non-nil) fails the transfer after the
// stall — the caller sees a fabric drop and must roll back. The zero
// value is a clean transfer.
type TransferFault struct {
	Stall time.Duration
	Err   error
}

// SetFault installs a hook consulted once per TransferPages call, before
// any fabric time is charged (nil clears it). The chaos harness uses it
// to model interconnect stalls, drops, and partition windows; see
// internal/chaos.
func (ic *Interconnect) SetFault(fn func(pages int, bytes int64) TransferFault) {
	ic.mu.Lock()
	ic.fault = fn
	ic.mu.Unlock()
}

// NewInterconnect returns a fabric link with the given RTT and bandwidth
// on clock clk. bytesPerSec <= 0 means infinite bandwidth.
func NewInterconnect(clk *simclock.Clock, rtt time.Duration, bytesPerSec int64) *Interconnect {
	return &Interconnect{link: New(clk, rtt, bytesPerSec)}
}

// DefaultInterconnect returns a fabric link with NVLink/IB-class defaults.
func DefaultInterconnect(clk *simclock.Clock) *Interconnect {
	return NewInterconnect(clk, DefaultInterconnectRTT, int64(DefaultInterconnectGbps*1e9/8))
}

// Gbps reports the configured bandwidth in Gbit/s (0 = infinite).
func (ic *Interconnect) Gbps() float64 {
	return float64(ic.link.BytesPerSec) * 8 / 1e9
}

// PageTransferTime reports the one-way time to move pages fixed-size KV
// pages of pageBytes each, without sleeping. Time is proportional to the
// page count on top of the propagation floor.
func (ic *Interconnect) PageTransferTime(pages int, pageBytes int64) time.Duration {
	if pages <= 0 {
		return 0
	}
	return ic.link.TransferTime(int(int64(pages) * pageBytes))
}

// TransferPages charges the calling actor for moving pages KV pages of
// pageBytes each across the fabric. An installed fault hook may stall the
// transfer (extra fabric time, still charged) and then fail it; a failed
// transfer never reaches the destination, so the caller's reserved
// destination copy must be dropped.
func (ic *Interconnect) TransferPages(pages int, pageBytes int64) error {
	if pages <= 0 {
		return nil
	}
	bytes := int64(pages) * pageBytes
	ic.mu.Lock()
	fn := ic.fault
	ic.mu.Unlock()
	if fn != nil {
		f := fn(pages, bytes)
		if f.Stall > 0 {
			if err := ic.link.clk.Sleep(f.Stall); err != nil {
				return err
			}
		}
		if f.Err != nil {
			return f.Err
		}
	}
	return ic.link.OneWay(int(bytes))
}
