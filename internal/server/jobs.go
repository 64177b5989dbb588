// The job registry is the server's unit of tenancy around kernel
// processes. Submitting a program — through v2 or through the synchronous
// v1 wrappers — creates a Job wrapping the core.Process, enforces a
// per-tenant cap on concurrently live jobs, and retains finished jobs for
// a window of *virtual* time so clients can poll terminal status and
// output after completion. Expiry is swept lazily against the kernel
// clock on every registry operation, so the registry adds no actors to
// the simulation.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lipscript"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Registry errors, mapped by errorCode to not_found / quota_exhausted.
var (
	errJobNotFound = errors.New("server: no such job")
	errJobQuota    = errors.New("server: tenant job quota exceeded")
)

// Job is one submitted program tracked by the registry.
type Job struct {
	ID   string
	User string
	Proc *core.Process
	// Priority is the scheduling lane the job's process runs in.
	Priority sched.Priority
}

// jobRegistry indexes live and recently finished jobs.
type jobRegistry struct {
	clk        *simclock.Clock
	k          *core.Kernel
	maxPerUser int
	retention  time.Duration
	defPrio    sched.Priority
	tenantPrio map[string]sched.Priority

	mu   sync.Mutex
	jobs map[string]*Job
}

func newJobRegistry(clk *simclock.Clock, k *core.Kernel, o Options) *jobRegistry {
	if o.MaxJobsPerUser <= 0 {
		o.MaxJobsPerUser = 32
	}
	if o.Retention <= 0 {
		o.Retention = 10 * time.Minute
	}
	defPrio, err := sched.ParsePriority(o.DefaultPriority)
	if err != nil {
		panic("server: " + err.Error())
	}
	tenantPrio := make(map[string]sched.Priority, len(o.TenantPriority))
	for tenant, lane := range o.TenantPriority {
		p, err := sched.ParsePriority(lane)
		if err != nil {
			panic("server: tenant " + tenant + ": " + err.Error())
		}
		tenantPrio[tenant] = p
	}
	return &jobRegistry{
		clk:        clk,
		k:          k,
		maxPerUser: o.MaxJobsPerUser,
		retention:  o.Retention,
		defPrio:    defPrio,
		tenantPrio: tenantPrio,
		jobs:       make(map[string]*Job),
	}
}

// priorityFor resolves a submission's scheduling lane: an explicit
// request field wins, then the tenant's configured default (the knob that
// lets an offline tenant's jobs default to the batch lane), then the
// server-wide default.
func (r *jobRegistry) priorityFor(user, requested string) sched.Priority {
	if requested != "" {
		p, _ := sched.ParsePriority(requested) // validated at parse time
		return p
	}
	if p, ok := r.tenantPrio[user]; ok {
		return p
	}
	return r.defPrio
}

// sweepLocked drops jobs that finished more than retention of virtual
// time ago. Caller holds r.mu.
func (r *jobRegistry) sweepLocked() {
	now := r.clk.Now()
	for id, j := range r.jobs {
		if ended, ok := j.Proc.EndedAt(); ok && now-ended > r.retention {
			delete(r.jobs, id)
		}
	}
}

// liveCountLocked counts the user's not-yet-finished jobs. Caller holds
// r.mu.
func (r *jobRegistry) liveCountLocked(user string) int {
	n := 0
	for _, j := range r.jobs {
		if j.User == user && !j.Proc.Done() {
			n++
		}
	}
	return n
}

// Submit enforces the tenant's live-job quota and starts the program as
// a registered job. The quota check and registration happen under one
// lock so concurrent submissions cannot both slip under the cap; holding
// r.mu across SubmitWith is safe because the kernel never calls back
// into the registry.
func (r *jobRegistry) Submit(user string, script *lipscript.Script) (*Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	if r.liveCountLocked(user) >= r.maxPerUser {
		return nil, fmt.Errorf("%w: user %s has %d live jobs", errJobQuota, user, r.maxPerUser)
	}
	prio := r.priorityFor(user, script.Priority)
	p := r.k.SubmitWith(user, script.Program(), core.SubmitOptions{Budget: script.Budget, Priority: prio})
	j := &Job{
		ID:       fmt.Sprintf("job-%06d", p.PID()),
		User:     user,
		Proc:     p,
		Priority: prio,
	}
	r.jobs[j.ID] = j
	return j, nil
}

// Get returns a job by ID, honoring retention.
func (r *jobRegistry) Get(id string) (*Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	j, ok := r.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errJobNotFound, id)
	}
	return j, nil
}

// Cancel requests cooperative termination of a job's process.
func (r *jobRegistry) Cancel(id string) (*Job, error) {
	j, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	j.Proc.Cancel()
	return j, nil
}

// List returns the user's jobs, oldest first.
func (r *jobRegistry) List(user string) []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	var out []*Job
	for _, j := range r.jobs {
		if j.User == user {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Proc.PID() < out[b].Proc.PID() })
	return out
}
