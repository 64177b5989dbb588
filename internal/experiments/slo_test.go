package experiments

import "testing"

// TestSLOAcceptance runs the quick priority sweep and enforces the
// acceptance bar: lanes must improve interactive p99 queue delay at least
// 3x over the fifo run-to-completion baseline at equal (±10%) aggregate
// token throughput, preempt at least once, and starve no batch call.
func TestSLOAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("slo sweep in -short mode")
	}
	cfg := QuickSLO()
	pts := RunSLO(cfg)
	if len(pts) != 5 || pts[0].Policy != "fifo" || pts[1].Policy != "lanes" ||
		pts[0].Mode != "mixed" || pts[1].Mode != "mixed" {
		t.Fatalf("unexpected sweep shape: %+v", pts)
	}
	fifo, lanes := pts[0], pts[1]
	wantClients := cfg.InteractiveClients + cfg.BatchClients
	for _, p := range pts {
		if p.Completed != wantClients || p.Errors != 0 {
			t.Fatalf("%s/%s: %d/%d clients completed, %d errors", p.Mode, p.Policy, p.Completed, wantClients, p.Errors)
		}
	}
	for _, p := range pts[:2] {
		if p.PredTokens != fifo.PredTokens {
			t.Fatalf("mixed cells ran unequal work: fifo %d tokens, %s %d", fifo.PredTokens, p.Policy, p.PredTokens)
		}
	}
	// The headline: iteration-level lanes vs run-to-completion fifo. The
	// quick sweep measures ~7.0x; 3x is the acceptance bar.
	if lanes.InteractiveP99*3 > fifo.InteractiveP99 {
		t.Fatalf("interactive p99 %v under lanes vs %v under fifo: improvement below 3x",
			lanes.InteractiveP99, fifo.InteractiveP99)
	}
	if lanes.InteractiveP99Speedup < 3 {
		t.Fatalf("recorded p99 speedup %.1fx below 3x", lanes.InteractiveP99Speedup)
	}
	// Equal aggregate throughput: slicing overhead must stay within ±10%.
	if ratio := lanes.Throughput / fifo.Throughput; ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("aggregate throughput not equal: lanes %.0f vs fifo %.0f tok/s (%.1f%%)",
			lanes.Throughput, fifo.Throughput, 100*(ratio-1))
	}
	// Preemption must actually engage, and aging must keep the batch lane
	// starvation-free while it does.
	if lanes.Preemptions == 0 {
		t.Fatal("lanes cell preempted nothing: the step budget is not binding")
	}
	if lanes.Starved != 0 {
		t.Fatalf("%d batch calls starved past %v under lanes", lanes.Starved, cfg.StarveAfter)
	}
	if fifo.Preemptions != 0 {
		t.Fatalf("fifo cell recorded %d preemptions", fifo.Preemptions)
	}

	// Heavy-prefill cells: what chunked prefill alone buys under fifo,
	// with no priority policy in play at all.
	hFifo, hChunk, hLanes := pts[2], pts[3], pts[4]
	if hFifo.Mode != "heavy" || hChunk.Policy != "fifo+chunk" || hLanes.Policy != "lanes" {
		t.Fatalf("unexpected heavy cells: %+v", pts[2:])
	}
	for _, p := range pts[2:] {
		if p.PredTokens != hFifo.PredTokens {
			t.Fatalf("heavy cells ran unequal work: fifo %d tokens, %s %d", hFifo.PredTokens, p.Policy, p.PredTokens)
		}
	}
	// Slicing the monolithic HeavyPrefill step to HeavyChunk must cut
	// interactive p99 at least 1.5x (the quick sweep measures ~4.3x)
	// while aggregate throughput stays flat within ±10%.
	if hChunk.InteractiveP99*3 > hFifo.InteractiveP99*2 {
		t.Fatalf("heavy interactive p99 %v chunked vs %v unchunked: improvement below 1.5x",
			hChunk.InteractiveP99, hFifo.InteractiveP99)
	}
	if ratio := hChunk.Throughput / hFifo.Throughput; ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("heavy throughput not flat: chunked %.0f vs unchunked %.0f tok/s (%.1f%%)",
			hChunk.Throughput, hFifo.Throughput, 100*(ratio-1))
	}
	// Chunking is pure slicing — it must not have engaged preemption —
	// and an actual priority policy must still beat it on latency.
	if hChunk.Preemptions != 0 {
		t.Fatalf("fifo+chunk cell recorded %d preemptions", hChunk.Preemptions)
	}
	if hLanes.InteractiveP99 >= hChunk.InteractiveP99 {
		t.Fatalf("lanes p99 %v not better than fifo+chunk p99 %v", hLanes.InteractiveP99, hChunk.InteractiveP99)
	}
}
