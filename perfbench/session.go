package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
	"repro/pkg/gae"
)

// session-durable: the gae-loadgen interactive mix from two closed-loop
// clients over the local transport, against a deployment with a durable
// store. Writes sit beside reads, so journaling, group commit, the
// idempotency window and Scheduler.Submit do the work, with no XML.
//
// Each round ends with two verification operations. single-launch
// compares the condor jobs with the acknowledged tasks; recovery closes
// the store, recovers a fresh deployment from the same directory and
// compares captured states. On a scheduler whose concurrent pumps can
// launch one task twice, both fail in every round; they are counted as
// failed and the run goes on.

const (
	sessionOpsPerClient = 2000
	sessionKeys         = 8
)

func init() { register(workload{name: "session-durable", round: sessionRound}) }

// sessionConfig is gae-loadgen's embedded deployment: two four-node
// sites, the second carrying a 0.3 background load.
func sessionConfig(seed int64) core.Config {
	cfg := gridConfig(seed, 4)
	cfg.Sites[1].Load = simgrid.ConstantLoad(0.3)
	return cfg
}

// sessionClient is one closed-loop client and the benchmark's own record
// of what it was acknowledged: the oracle for the end-of-round checks.
type sessionClient struct {
	id       int
	c        *gae.Client
	rng      *rand.Rand
	home     string   // submitted before the clients run concurrently
	plans    []string // every acknowledged plan, home first
	lastPlan string
	prio     int // last acknowledged priority of home's task (-1: none)
	state    map[string]string
	lat      []float64
	kinds    *kindTimes
}

func sessionRound(e *env, traced bool) (*round, error) {
	ctx := context.Background()
	r := &round{layer: map[string]float64{}, traced: map[string]float64{}}
	tr := e.tracer(traced)
	t0 := time.Now()

	dir := filepath.Join(e.workDir, fmt.Sprintf("session-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	// The store sits inside the checkout, on whatever disk that is. Its
	// journal writes still go through the page cache, but Sync does not
	// reach the device — what a tmpfs directory would give — so disk
	// noise does not set the numbers. durable.flushes still counts every
	// group commit; the fsync wait itself is what this hides.
	ff := store.InjectFaults()
	ff.F = pageCacheOnly{ff.F}
	cfg := sessionConfig(e.seed)
	g := core.New(cfg)
	if err := g.AttachStore(store); err != nil {
		store.Close()
		return nil, err
	}
	kinds := &kindTimes{}
	cs := make([]*sessionClient, clients)
	for i := range cs {
		cs[i] = &sessionClient{
			id: i, c: g.Client(benchUser), prio: -1, state: map[string]string{}, kinds: kinds,
			rng:  newSessionRNG(e.seed, i),
			home: fmt.Sprintf("s%d-home", i),
		}
		// The home plans are submitted one after the other, so no other
		// submission races them: steering them measures steering, not the
		// double-launch fault the verification operations count.
		c := cs[i]
		_, err := c.c.Submit(ctx, singleTask(c.home, 3600+c.rng.Float64()*3600))
		if !r.tally.record("submit", err) {
			store.Close()
			return nil, fmt.Errorf("submitting %s: %w", c.home, err)
		}
		c.plans, c.lastPlan = []string{c.home}, c.home
	}
	r.setup = time.Since(t0)

	var prof *profiler
	if traced {
		if prof, err = startProfile(); err != nil {
			store.Close()
			return nil, err
		}
	}
	spanOf := &sync.Map{} // request ID -> opRef, for the server-side stages
	p := startPhase()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *sessionClient) {
			defer wg.Done()
			c.run(ctx, e, r, tr, spanOf)
		}(c)
	}
	wg.Wait()
	p.stop(r)
	if prof != nil {
		cpu, err := prof.stop()
		if err != nil {
			store.Close()
			return nil, err
		}
		for k, v := range cpu {
			r.traced[k] = v
		}
	}
	for _, c := range cs {
		r.lat = append(r.lat, c.lat...)
		r.ops += len(c.lat)
	}
	r.perAlloc = float64(r.ops)
	for _, k := range []string{"submit", "plan", "taskstatus", "steer", "state-set", "state-get", "weather", "sites"} {
		if v, ok := kinds.median(k); ok {
			r.layer["op."+strings.ReplaceAll(k, "-", "_")+"_ms"] = v
		}
	}
	if traced {
		coreStages(tr, r, g.Trace().Recent(0), spanOf)
	}
	journalLayers(r, g.Telemetry.Snapshot())

	sessionChecks(ctx, e, g, cs)
	singleLaunch(e, r, g, cs)
	recoverAndCompare(r, g, store, dir, cfg)
	r.live = g
	return r, nil
}

// newSessionRNG is client i's generator: its plan sizes, its mix and its
// keys all come from the seed.
func newSessionRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(i)))
}

// run is one client's closed loop: the gae-loadgen operations, drawn
// from the client's seeded generator in different shares. In
// gae-loadgen's shares the fast reads (state get, plan, sites, weather)
// make up exactly half the mix and submits exactly the slowest tenth, so
// p50 and p90 sit on the boundary between two kinds of operation and
// read the tail of one of them. Here the fast reads are 25 %, state set
// and steer 15 %, task status 40 % and submit 20 %, so p50 falls a
// quarter of the way into the task-status latencies and p90 in the
// middle of the submit latencies.
func (c *sessionClient) run(ctx context.Context, e *env, r *round, tr *spanLog, spanOf *sync.Map) {
	var keysSet []string
	submitted := 0
	c.lat = make([]float64, 0, sessionOpsPerClient)
	do := func(kind string, mutating bool, call func(ctx context.Context) error) {
		op := tr.newOp()
		sp := tr.start("op."+kind, 0, op)
		callCtx := ctx
		if mutating && tr != nil {
			// A pinned request ID ties the deployment's trace-ring span
			// for this call back to the operation.
			rid := fmt.Sprintf("pb-%d", op)
			callCtx = gae.WithRequestID(ctx, rid)
			spanOf.Store(rid, opRef{op: op, parent: sp.id()})
		}
		t := time.Now()
		err := call(callCtx)
		d := msOf(time.Since(t))
		sp.end()
		c.lat = append(c.lat, d)
		c.kinds.add(kind, d)
		r.tally.record(kind, err)
	}
	for len(c.lat) < sessionOpsPerClient {
		switch p := c.rng.Float64(); {
		case p < 0.20:
			name := fmt.Sprintf("s%d-p%d", c.id, submitted)
			submitted++
			spec := singleTask(name, 3600+c.rng.Float64()*3600)
			do("submit", true, func(ctx context.Context) error {
				_, err := c.c.Submit(ctx, spec)
				if err == nil {
					c.plans = append(c.plans, name)
					c.lastPlan = name
				}
				return err
			})
		case p < 0.28:
			do("plan", false, func(ctx context.Context) error {
				st, err := c.c.Plan(ctx, c.lastPlan)
				if err == nil && (st.Name != c.lastPlan || len(st.Tasks) != 1) {
					e.checks.failf("session-durable: plan %s answered as %s with %d tasks", c.lastPlan, st.Name, len(st.Tasks))
				}
				return err
			})
		case p < 0.68:
			do("taskstatus", false, func(ctx context.Context) error {
				st, err := c.c.TaskStatus(ctx, c.lastPlan, "t0")
				if err == nil && (st.Plan != c.lastPlan || st.Task != "t0") {
					e.checks.failf("session-durable: task status of %s/t0 names %s/%s", c.lastPlan, st.Plan, st.Task)
				}
				return err
			})
		case p < 0.75:
			prio := c.rng.Intn(10)
			do("steer", true, func(ctx context.Context) error {
				err := c.c.SetPriority(ctx, c.home, "t0", prio)
				if err == nil {
					c.prio = prio
				}
				return err
			})
		case p < 0.83:
			key := fmt.Sprintf("s%d-k%d", c.id, c.rng.Intn(sessionKeys))
			val := fmt.Sprintf("v%d", len(c.lat))
			do("state-set", true, func(ctx context.Context) error {
				err := c.c.SetState(ctx, key, val)
				if err == nil {
					if _, seen := c.state[key]; !seen {
						keysSet = append(keysSet, key)
					}
					c.state[key] = val
				}
				return err
			})
		case p < 0.93:
			if len(keysSet) == 0 {
				do("state-keys", false, func(ctx context.Context) error {
					_, err := c.c.StateKeys(ctx)
					return err
				})
				continue
			}
			key := keysSet[c.rng.Intn(len(keysSet))]
			do("state-get", false, func(ctx context.Context) error {
				v, err := c.c.GetState(ctx, key)
				if err == nil && v != c.state[key] {
					e.checks.failf("session-durable: key %s reads %q, last acknowledged %q", key, v, c.state[key])
				}
				return err
			})
		case p < 0.98:
			do("weather", false, func(ctx context.Context) error {
				w, err := c.c.Weather(ctx)
				if err == nil && len(w) != 2 {
					e.checks.failf("session-durable: weather covers %d sites, want 2", len(w))
				}
				return err
			})
		default:
			do("sites", false, func(ctx context.Context) error {
				s, err := c.c.Sites(ctx)
				if err == nil && strings.Join(s, ",") != "siteA,siteB" {
					e.checks.failf("session-durable: sites %v", s)
				}
				return err
			})
		}
	}
}

// sessionChecks compares the deployment with the clients' own records:
// every acknowledged plan exists with its task, every key holds the last
// value its client set, and the steered job carries the last
// acknowledged priority.
func sessionChecks(ctx context.Context, e *env, g *core.GAE, cs []*sessionClient) {
	local := g.Client(benchUser)
	for _, c := range cs {
		for _, name := range c.plans {
			st, err := local.Plan(ctx, name)
			if err != nil || len(st.Tasks) != 1 || st.Tasks[0].Task != "t0" {
				e.checks.failf("session-durable: acknowledged plan %s: %v (%d tasks)", name, err, len(st.Tasks))
			}
		}
		for key, want := range c.state {
			if got, err := local.GetState(ctx, key); err != nil || got != want {
				e.checks.failf("session-durable: key %s ends at %q (%v), last acknowledged %q", key, got, err, want)
			}
		}
		if c.prio >= 0 {
			st, err := local.TaskStatus(ctx, c.home, "t0")
			if err != nil || st.Job == nil || st.Job.Priority != c.prio {
				e.checks.failf("session-durable: steered %s/t0 has %+v (%v), last acknowledged priority %d", c.home, st.Job, err, c.prio)
			}
		}
	}
}

// singleLaunch is the first verification operation: every acknowledged
// task must have become exactly one condor job.
func singleLaunch(e *env, r *round, g *core.GAE, cs []*sessionClient) {
	tasks, jobs := 0, 0
	for _, site := range g.Sites() {
		pool, _ := g.Pool(site)
		js, err := pool.Jobs()
		if err != nil {
			e.checks.failf("session-durable: listing %s: %v", site, err)
		}
		jobs += len(js)
	}
	for _, c := range cs {
		tasks += len(c.plans)
	}
	r.layer["scheduler.jobs_launched"] = float64(jobs)
	r.layer["scheduler.dup_launches"] = float64(jobs - tasks)
	var err error
	if jobs != tasks {
		err = fmt.Errorf("%d condor jobs for %d acknowledged tasks", jobs, tasks)
	}
	r.tally.record("single-launch", err)
}

// recoverAndCompare is the second verification operation: close the
// store, recover a fresh deployment from the same directory, and
// compare its captured state with the live one.
func recoverAndCompare(r *round, g *core.GAE, store *durable.Store, dir string, cfg core.Config) {
	err := func() error {
		live, err := g.CaptureState()
		if err != nil {
			store.Close()
			return err
		}
		if err := store.Close(); err != nil {
			return err
		}
		again, err := durable.Open(dir)
		if err != nil {
			return err
		}
		defer again.Close()
		g2 := core.New(cfg)
		if err := g2.AttachStore(again); err != nil {
			return err
		}
		recovered, err := g2.CaptureState()
		if err != nil {
			return err
		}
		diff, err := diffStates(live, recovered)
		if err != nil {
			return err
		}
		if diff != "" {
			return fmt.Errorf("recovered state differs from live state at %s", diff)
		}
		return nil
	}()
	r.tally.record("recovery", err)
}

// coreStages reads the deployment's trace ring: the handler and journal
// stages of each mutating call, joined to the benchmark's operation by
// its pinned request ID.
func coreStages(tr *spanLog, r *round, spans []telemetry.Span, spanOf *sync.Map) {
	var handler, journal []float64
	for _, s := range spans {
		v, ok := spanOf.Load(s.RequestID)
		if !ok {
			continue
		}
		ref := v.(opRef)
		start := s.Start
		for _, st := range s.Stages {
			d := time.Duration(st.Millis * float64(time.Millisecond))
			tr.record("core."+st.Name, ref.parent, ref.op, start, d)
			start = start.Add(d)
			switch st.Name {
			case "handler":
				handler = append(handler, usOf(d))
			case "journal":
				journal = append(journal, usOf(d))
			}
		}
	}
	if len(handler) > 0 {
		r.traced["core.handler_us"] = median(handler)
	}
	if len(journal) > 0 {
		r.traced["core.journal_us"] = median(journal)
	}
}

// journalLayers reads the journal's and scheduler's telemetry families.
func journalLayers(r *round, snap telemetry.Snapshot) {
	flushes, _ := snap.Value("journal_flushes_total", "")
	appends, _ := snap.Value("journal_appends_total", "")
	r.layer["durable.flushes"] = flushes
	if flushes > 0 {
		r.layer["durable.records_per_flush"] = appends / flushes
	}
	if m, ok := snap.Find("journal_fsync_seconds", ""); ok && m.Count > 0 {
		r.layer["durable.fsync_ms"] = m.Sum / float64(m.Count) * 1000
	}
	if m, ok := snap.Find("journal_batch_bytes", ""); ok && appends > 0 {
		r.layer["durable.bytes_per_record"] = m.Sum / appends
	}
	schedulerLayers(r, snap)
}

func schedulerLayers(r *round, snap telemetry.Snapshot) {
	wakes, _ := snap.Value("scheduler_wakes_total", "")
	r.layer["scheduler.wakes"] = wakes
	if m, ok := snap.Find("scheduler_place_seconds", ""); ok && m.Count > 0 {
		r.layer["scheduler.place_ms"] = m.Sum / float64(m.Count) * 1000
	}
}

// pageCacheOnly is a journal file whose Sync leaves the data in the
// page cache.
type pageCacheOnly struct{ durable.File }

func (pageCacheOnly) Sync() error { return nil }
