package main

// Remote mode: instead of interpreting a lipscript against an in-process
// kernel, submit it to a running symphonyd as a v2 job and stream the
// process's events back as they happen — the client half of the
// job-oriented serving API. Ctrl-C (or -cancel-after) issues a DELETE so
// the server-side process terminates as cancelled instead of burning
// simulated GPU time for an audience that left.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"
)

// remoteJob mirrors the server's job responses (internal/server is not
// importable contract; the wire format is).
type remoteJob struct {
	JobID       string `json:"job_id"`
	PID         int    `json:"pid"`
	Status      string `json:"status"`
	PredTokens  int64  `json:"pred_tokens"`
	VirtualTime string `json:"virtual_time"`
	Error       string `json:"error"`
	Code        string `json:"code"`
	EventsURL   string `json:"events_url"`
}

// remoteEvent mirrors core.ProcEvent on the wire.
type remoteEvent struct {
	Kind   string `json:"kind"`
	Text   string `json:"text"`
	Op     string `json:"op"`
	Index  int    `json:"index"`
	Phase  string `json:"phase"`
	Status string `json:"status"`
	Err    string `json:"error"`
	Final  bool   `json:"final"`
}

func runRemote(base, user string, data []byte, cancelAfter time.Duration) error {
	base = strings.TrimRight(base, "/")

	req, err := http.NewRequest(http.MethodPost, base+"/v2/programs", strings.NewReader(string(data)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Symphony-User", user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	body, job := resp.Body, remoteJob{}
	err = json.NewDecoder(body).Decode(&job)
	body.Close()
	if err != nil {
		return fmt.Errorf("submit: decoding response: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s (%s)", job.Error, job.Code)
	}
	fmt.Fprintf(os.Stderr, "submitted %s (pid %d) to %s; streaming %s\n",
		job.JobID, job.PID, base, job.EventsURL)

	// Ctrl-C (or the -cancel-after timer) cancels the server-side job.
	cancelJob := func(why string) {
		fmt.Fprintf(os.Stderr, "\n%s: cancelling %s\n", why, job.JobID)
		dreq, _ := http.NewRequest(http.MethodDelete, base+"/v2/programs/"+job.JobID, nil)
		if dresp, err := http.DefaultClient.Do(dreq); err == nil {
			dresp.Body.Close()
		}
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			// Restore the default disposition first: a second Ctrl-C
			// kills the client even if the server never closes the stream.
			signal.Stop(sigs)
			cancelJob("interrupt")
		}
	}()
	if cancelAfter > 0 {
		timer := time.AfterFunc(cancelAfter, func() { cancelJob("cancel-after") })
		defer timer.Stop()
	}

	final, err := streamRemoteEvents(base, &job)
	if err != nil {
		return err
	}

	// Fetch terminal accounting (the poll endpoint has the full output).
	gresp, err := http.Get(base + "/v2/programs/" + job.JobID)
	if err == nil {
		json.NewDecoder(gresp.Body).Decode(&job)
		gresp.Body.Close()
	}
	fmt.Fprintf(os.Stderr, "---\njob %s: %s · %d pred tokens · virtual time %s\n",
		job.JobID, job.Status, job.PredTokens, job.VirtualTime)
	// Map the terminal status to the exit code: a program that failed or
	// was cancelled must not exit 0, or scripts driving lip-run -remote
	// would read every outcome as success.
	switch final.Status {
	case "failed":
		return fmt.Errorf("remote program failed: %s", final.Err)
	case "cancelled":
		return fmt.Errorf("remote program cancelled")
	}
	return nil
}

// streamRemoteEvents consumes the job's SSE stream, rendering token
// chunks inline and lifecycle transitions to stderr, until the terminal
// event.
func streamRemoteEvents(base string, job *remoteJob) (remoteEvent, error) {
	resp, err := http.Get(base + job.EventsURL)
	if err != nil {
		return remoteEvent{}, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteEvent{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last remoteEvent
	inGenerate := false // suppress the generate's trailing emit: its tokens already streamed
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev remoteEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		last = ev
		switch ev.Kind {
		case "token":
			fmt.Print(ev.Text)
		case "emit":
			if !inGenerate {
				fmt.Print(ev.Text)
			}
		case "statement":
			if ev.Op == "generate" {
				inGenerate = ev.Phase == "start"
			}
			if ev.Phase == "start" {
				fmt.Fprintf(os.Stderr, "· step %d (%s)\n", ev.Index, ev.Op)
			}
		case "status":
			fmt.Fprintf(os.Stderr, "· status: %s\n", ev.Status)
		}
		if ev.Final {
			fmt.Println()
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("events: %w", err)
	}
	return last, fmt.Errorf("events: stream ended without a terminal event")
}
