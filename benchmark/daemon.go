package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The daemon_http workload is the only one on the wall clock: it builds
// cmd/symphonyd, spawns it on a loopback port and drives it over real
// sockets, one keep-alive connection per client.

const (
	outDir = "benchmark/out"
	// daemonClients is the number of closed-loop clients: one, because the
	// clients and the daemon share one CPU (see runWorkload). A second client
	// on that CPU adds no throughput, and the one request in a hundred that
	// then meets the other client's in the daemon's kernel owns the 99th
	// percentile of the virtual latencies in some runs and not in others.
	daemonClients = 1
	// daemonWarm requests are sent to every daemon before it is measured.
	daemonWarm = 256
	// daemonStatsEvery: every n-th request of a client also reads /v1/stats.
	daemonStatsEvery = 50
	// daemonSegments: a run is this many equal stretches, each against a
	// daemon of its own, and the median stretch is reported.
	daemonSegments = 3
	// daemonSlice: a stretch is measured in slices of this length. Between
	// two slices the clients wait while the reference computation is timed
	// (see ref.go), so host throughput is the median over many slices, each
	// scaled by the machine's speed around it.
	daemonSlice = 100 * time.Millisecond
	// daemonRefSlice is how long the reference is timed between two slices,
	// after a first refSlice that is thrown away: the process has just been
	// waiting on sockets and wakes up on a cold core.
	daemonRefSlice = 4 * time.Millisecond
)

// buildDaemon compiles cmd/symphonyd into outDir and returns the binary's
// path and how long the build took.
func buildDaemon() (string, time.Duration, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", 0, fmt.Errorf("daemon_http builds ./cmd/symphonyd and must run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "symphonyd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/symphonyd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/symphonyd: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// daemon is one running symphonyd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs bytes.Buffer
}

// spawnDaemon starts the binary on a free loopback port and returns once
// /healthz answers.
func spawnDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, "-addr", addr, "-speedup", "1000000", "-gpus", "1")
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1") // see runWorkload
	d.cmd.Stdout, d.cmd.Stderr = &d.logs, &d.logs
	dieWithParent(d.cmd)
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("symphonyd did not answer /healthz within 10s:\n%s", d.logs.String())
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // a killed process always reports an error
}

// procCPU reads the daemon's user+system CPU time from /proc.
func (d *daemon) procCPU() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks of 10 ms.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// procPeakRSSMB reads a process's peak resident set size from /proc.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// sseFrame is one Server-Sent Event.
type sseFrame struct {
	ID    string
	Event string
	Data  string
}

// readSSE reads the next frame from r: "field: value" lines up to a blank
// line. Comment lines and unknown fields are skipped; multiple data lines
// are joined with newlines. It returns io.EOF at a clean end of stream.
func readSSE(r *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	seen := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) && !seen && line == "" {
				return f, io.EOF
			}
			if errors.Is(err, io.EOF) {
				return f, io.ErrUnexpectedEOF
			}
			return f, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if seen {
				return f, nil
			}
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			f.ID, seen = value, true
		case "event":
			f.Event, seen = value, true
		case "data":
			if f.Data != "" {
				f.Data += "\n"
			}
			f.Data += value
			seen = true
		}
	}
}

// httpResult is what one client observed of one request: on the wall clock
// as the frames arrived, and on the daemon's virtual clock as each frame's
// at_ns says.
type httpResult struct {
	client, idx int
	start       time.Time // POST written
	post        time.Duration
	first       time.Duration // start → first token frame
	last        time.Duration // start → last token frame
	final       time.Duration // start → final frame
	// Virtual publish times of the process's first event (its start), its
	// first and last token and its final event.
	vStart, vFirst, vLast, vFinal time.Duration
	sse                           time.Duration // events response opened → final frame
	poll                          time.Duration
	stats                         time.Duration // 0 unless this request also read /v1/stats
	tokens                        int
	frames                        int
	output                        string
	err                           string
}

func (r *httpResult) ok() bool { return r.err == "" }

// frameAt reads the virtual publish time out of an event frame's JSON
// without decoding the rest of it; frames are many and the client shares
// one CPU with the daemon it measures.
func frameAt(data string) time.Duration {
	const key = `"at_ns":`
	i := strings.Index(data, key)
	if i < 0 {
		return 0
	}
	rest := data[i+len(key):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	ns, _ := strconv.ParseInt(rest[:end], 10, 64)
	return time.Duration(ns)
}

// httpClient is one closed-loop client on its own keep-alive connection.
type httpClient struct {
	id   int
	base string
	hc   *http.Client
	span func(req int, name string, start time.Time, d time.Duration) // nil when not tracing
}

func newHTTPClient(id int, base string) *httpClient {
	return &httpClient{id: id, base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *httpClient) trace(req int, name string, start time.Time) {
	if c.span != nil {
		c.span(req, name, start, time.Since(start))
	}
}

// jobView is the part of the v2 job reply the checker reads.
type jobView struct {
	JobID      string `json:"job_id"`
	Status     string `json:"status"`
	Output     string `json:"output"`
	PredTokens int64  `json:"pred_tokens"`
	Error      string `json:"error"`
}

func (c *httpClient) getJSON(path string, into any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, into)
}

// run submits one program, follows its event stream to the final frame and
// polls the finished job once.
func (c *httpClient) run(idx int, body []byte, withStats bool) httpResult {
	res := httpResult{client: c.id, idx: idx, start: time.Now()}
	fail := func(err error) httpResult {
		res.err = err.Error()
		return res
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v2/programs", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Symphony-User", fmt.Sprintf("client-%d", c.id))
	resp, err := c.hc.Do(req)
	if err != nil {
		return fail(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	res.post = time.Since(res.start)
	c.trace(idx, "post", res.start)
	if resp.StatusCode != http.StatusAccepted {
		return fail(fmt.Errorf("POST /v2/programs: %s: %s", resp.Status, bytes.TrimSpace(reply)))
	}
	var job jobView
	if err := json.Unmarshal(reply, &job); err != nil {
		return fail(err)
	}

	sseStart := time.Now()
	stream, err := c.hc.Get(c.base + "/v2/programs/" + job.JobID + "/events")
	if err != nil {
		return fail(err)
	}
	if stream.StatusCode != http.StatusOK {
		stream.Body.Close()
		return fail(fmt.Errorf("GET events: %s", stream.Status))
	}
	r := bufio.NewReader(stream.Body)
	for res.final == 0 {
		f, err := readSSE(r)
		if err != nil {
			stream.Body.Close()
			return fail(fmt.Errorf("event stream ended before the final frame: %w", err))
		}
		res.frames++
		now, at := time.Since(res.start), frameAt(f.Data)
		if res.frames == 1 {
			res.vStart = at
		}
		switch {
		case f.Event == "token":
			if res.tokens == 0 {
				res.first, res.vFirst = now, at
			}
			res.last, res.vLast = now, at
			res.tokens++
		case f.Event == "status" && strings.Contains(f.Data, `"final":true`):
			res.final, res.vFinal = now, at
		}
	}
	// Drain to EOF so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, r)
	stream.Body.Close()
	res.sse = time.Since(sseStart)
	c.trace(idx, "sse", sseStart)

	pollStart := time.Now()
	if err := c.getJSON("/v2/programs/"+job.JobID, &job); err != nil {
		return fail(err)
	}
	res.poll = time.Since(pollStart)
	c.trace(idx, "poll", pollStart)
	res.output = job.Output
	switch {
	case job.Status != "done":
		return fail(fmt.Errorf("job %s: status %q, error %q", job.JobID, job.Status, job.Error))
	case job.Output == "":
		return fail(fmt.Errorf("job %s: empty output", job.JobID))
	case job.PredTokens <= 0:
		return fail(fmt.Errorf("job %s: pred_tokens %d", job.JobID, job.PredTokens))
	}
	if withStats {
		statsStart := time.Now()
		var st map[string]any
		if err := c.getJSON("/v1/stats", &st); err != nil {
			return fail(err)
		}
		res.stats = time.Since(statsStart)
		c.trace(idx, "stats", statsStart)
	}
	return res
}

// daemonSliceRate is what one slice of a measured stretch saw.
type daemonSliceRate struct {
	ok  int           // requests completed
	dur time.Duration // start to the last completion
	ref refTiming     // the reference timed before and after
}

// perWallSecond and perRefSecond are the slice's completions per second.
func (s daemonSliceRate) perWallSecond() float64 { return float64(s.ok) / s.dur.Seconds() }
func (s daemonSliceRate) perRefSecond() float64  { return float64(s.ok) / s.refSeconds() }

// refSeconds is the slice's length in reference seconds.
func (s daemonSliceRate) refSeconds() float64 { return s.dur.Seconds() * s.ref.factor() }

// daemonSegment is one measured stretch against one daemon process.
type daemonSegment struct {
	results   []httpResult // measured requests, per client in send order
	warm      []httpResult
	slices    []daemonSliceRate
	cpu       time.Duration // daemon CPU over the measured stretch
	peakRSSMB float64
	stats     map[string]any // /v1/stats after the stretch
	spawnWall time.Duration  // exec to /healthz
	warmWall  time.Duration
	// setupFactor is the reference's speed around set-up as a share of
	// refNominal: wall seconds times it are reference seconds.
	setupFactor float64
}

// daemonRun is one run of the workload: daemonSegments segments, each
// against a freshly spawned daemon. Whatever a process settles into at
// start-up — heap layout, thread placement — differs between daemons, so
// the median over segments is steadier than any one long stretch, and
// set-up is timed once per segment.
type daemonRun struct {
	segs      []daemonSegment
	buildWall time.Duration
	genWall   time.Duration
}

// setupSeconds is the median segment's set-up time in reference seconds.
func (r *daemonRun) setupSeconds() float64 {
	s := make([]float64, len(r.segs))
	for i, seg := range r.segs {
		s[i] = (r.genWall + seg.spawnWall + seg.warmWall).Seconds() * seg.setupFactor
	}
	return median(s)
}

// all returns every request of the run, warm-up first within each segment.
func (r *daemonRun) all() []httpResult {
	var out []httpResult
	for _, seg := range r.segs {
		out = append(append(out, seg.warm...), seg.results...)
	}
	return out
}

// runDaemon builds symphonyd and drives it for the given wall time, split
// over daemonSegments daemons with daemonClients closed-loop clients each.
func runDaemon(seed int64, seconds float64, spans *spanLog) (*daemonRun, error) {
	run := &daemonRun{}
	bin, buildWall, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	run.buildWall = buildWall

	// Input generation: requests are pure functions of (seed, client, idx).
	// The warm-up bodies are built here; each measured request is built by
	// its client just before it is timed, off the measured path.
	perClient := daemonWarm / daemonClients
	t0 := time.Now()
	warmBodies := make([][][]byte, daemonClients)
	for c := range warmBodies {
		for i := 0; i < daemonSegments*perClient; i++ {
			warmBodies[c] = append(warmBodies[c], genDaemonRequest(seed, c, i).body)
		}
	}
	run.genWall = time.Since(t0)

	next := daemonSegments * perClient // first measured request index of every client
	for s := 0; s < daemonSegments; s++ {
		seg, err := runDaemonSegment(bin, seed, seconds/daemonSegments, s*perClient, warmBodies, &next, spans)
		if err != nil {
			return nil, err
		}
		run.segs = append(run.segs, *seg)
	}
	return run, nil
}

// runDaemonSegment spawns one daemon, warms it up with the warm-up bodies
// from index warmFrom and measures it for the given wall time. Measured
// request indices start at *next, which it advances.
func runDaemonSegment(bin string, seed int64, seconds float64, warmFrom int, warmBodies [][][]byte, next *int, spans *spanLog) (*daemonSegment, error) {
	seg := &daemonSegment{}
	ref := newRefWork()
	refBefore := ref.time(refSetupSlice)
	t0 := time.Now()
	d, err := spawnDaemon(bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	seg.spawnWall = time.Since(t0)

	clients := make([]*httpClient, daemonClients)
	for c := range clients {
		clients[c] = newHTTPClient(c, d.base)
		if spans != nil {
			clients[c].span = func(req int, name string, start time.Time, dur time.Duration) {
				spans.add(span{Req: c<<20 | req, Name: name, Layer: "server", Start: start.Sub(spans.epoch), Dur: dur})
			}
		}
	}

	// Warm-up: the vocabulary request alone, then the warm-up requests.
	warmStart := time.Now()
	if res := clients[0].run(-1, vocabRequest(), false); !res.ok() {
		return nil, fmt.Errorf("vocabulary request: %s\n%s", res.err, d.logs.String())
	}
	perClient := daemonWarm / daemonClients
	var wg sync.WaitGroup
	perClientRes := make([][]httpResult, daemonClients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := warmFrom; i < warmFrom+perClient; i++ {
				perClientRes[c] = append(perClientRes[c], clients[c].run(i, warmBodies[c][i], false))
			}
		}()
	}
	wg.Wait()
	for c := range perClientRes {
		seg.warm = append(seg.warm, perClientRes[c]...)
		perClientRes[c] = nil
	}
	seg.warmWall = time.Since(warmStart)
	seg.setupFactor = refBefore.plus(ref.time(refSetupSlice)).factor()

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	cpu0 := d.procCPU()
	nextIdx := make([]int, daemonClients)
	for c := range nextIdx {
		nextIdx[c] = *next
	}
	timeRef := func() refTiming {
		ref.time(refSlice)
		return ref.time(daemonRefSlice)
	}
	refBefore = timeRef()
	for time.Now().Before(deadline) {
		start := time.Now()
		end := start.Add(daemonSlice)
		oks := make([]int, daemonClients)
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ; time.Now().Before(end); nextIdx[c]++ {
					i := nextIdx[c]
					res := clients[c].run(i, genDaemonRequest(seed, c, i).body, i%daemonStatsEvery == 0)
					if res.ok() {
						oks[c]++
					}
					perClientRes[c] = append(perClientRes[c], res)
				}
			}()
		}
		wg.Wait()
		slice := daemonSliceRate{dur: time.Since(start)}
		for _, n := range oks {
			slice.ok += n
		}
		refAfter := timeRef()
		slice.ref, refBefore = refBefore.plus(refAfter), refAfter
		seg.slices = append(seg.slices, slice)
	}
	seg.cpu = d.procCPU() - cpu0
	seg.peakRSSMB = procPeakRSSMB(d.cmd.Process.Pid)
	for c := range perClientRes {
		seg.results = append(seg.results, perClientRes[c]...)
		*next = max(*next, nextIdx[c])
	}
	if err := clients[0].getJSON("/v1/stats", &seg.stats); err != nil {
		return nil, fmt.Errorf("reading /v1/stats after the run: %w\n%s", err, d.logs.String())
	}
	return seg, nil
}
