package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
	"repro/pkg/gae"
)

// steer-backlog: the paper's steering and monitoring services over a
// busy grid. A few hundred single-task plans are submitted through core
// onto two sites; a quarter carry an input dataset held at one site, so
// tasks placed at the other stage it over simgrid.Network. Simulated time
// then advances in fixed chunks with steering and job-monitoring polling
// on, and between chunks one client asks job status, queue position and
// task status of queued tasks. Wire and journal are absent.
//
// An operation is one query. A fixed number follow each chunk, so
// ops_per_s and cpu_us_per_op, taken over chunks and queries together,
// carry the simulator's cost as well as the queries'.

const (
	steerPlans        = 300
	steerNodesPerSite = 8
	steerWarmup       = time.Minute
	steerChunk        = time.Minute
	steerChunks       = 60 // one hour
	// steerQueried is how many queued tasks each between-chunk pause
	// queries; each gets three queries.
	steerQueried = 2
)

func init() { register(workload{name: "steer-backlog", round: steerRound}) }

// steerInput is one plan of the backlog.
type steerInput struct {
	name  string
	cpu   float64
	input *gae.FileSpec // held at input.Site; nil for most plans
}

// steerInputs draws the backlog from the seed: 0.5-2 h tasks; every
// fourth carries a 20-100 MB dataset held at a random site. The dataset
// tasks sit at odd positions of the backlog, where the two site queues
// differ by one task, so about half land away from their data and stage
// it.
func steerInputs(seed int64) []steerInput {
	rng := rand.New(rand.NewSource(seed))
	in := make([]steerInput, steerPlans)
	for i := range in {
		in[i] = steerInput{name: fmt.Sprintf("b%03d", i), cpu: 1800 + rng.Float64()*5400}
		if i%4 == 1 {
			in[i].input = &gae.FileSpec{
				Name:   fmt.Sprintf("ds%03d", i),
				Site:   []string{"siteA", "siteB"}[rng.Intn(2)],
				SizeMB: 20 + rng.Float64()*80,
			}
		}
	}
	return in
}

func steerRound(e *env, traced bool) (*round, error) {
	ctx := context.Background()
	r := &round{layer: map[string]float64{}, traced: map[string]float64{}}
	tr := e.tracer(traced)
	t0 := time.Now()

	g := core.New(gridConfig(e.seed, steerNodesPerSite))
	local := g.Client(benchUser)
	inputs := steerInputs(e.seed)
	submitAt := g.Now()
	for _, in := range inputs {
		var files []gae.FileSpec
		if in.input != nil {
			if err := g.PutDataset(in.input.Site, in.input.Name, in.input.SizeMB); err != nil {
				return nil, err
			}
			files = []gae.FileSpec{{Name: in.input.Name}}
		}
		_, err := local.Submit(ctx, singleTask(in.name, in.cpu, files...))
		if !r.tally.record("submit", err) {
			return nil, fmt.Errorf("submitting %s: %w", in.name, err)
		}
	}
	g.Run(steerWarmup)
	r.setup = time.Since(t0)

	var prof *profiler
	var err error
	if traced {
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(e.seed + 1))
	kinds := &kindTimes{}
	var chunkMs []float64
	var chunkWall time.Duration
	var events int64
	for c := 0; c < steerChunks; c++ {
		step := tr.start("step", 0, tr.newOp())
		sp := tr.start("simgrid.RunFor", step.id(), step.s.Op)
		ev := g.Grid.Engine.Events()
		p := startPhase()
		g.Run(steerChunk)
		d := p.stop(r)
		sp.end()
		events += g.Grid.Engine.Events() - ev
		chunkWall += d
		chunkMs = append(chunkMs, msOf(d))

		queue := queuedTasks(g, inputs)
		for q := 0; q < steerQueried && len(queue.tasks) > 0; q++ {
			t := queue.tasks[rng.Intn(len(queue.tasks))]
			steerQueries(ctx, e, r, tr, step.id(), kinds, local, queue, t)
		}
		step.end()
	}
	if prof != nil {
		cpu, err := prof.stop()
		if err != nil {
			return nil, err
		}
		for k, v := range cpu {
			r.traced[k] = v
		}
	}
	r.perAlloc = float64(events)
	simLayers(r, events, chunkWall, chunkMs, steerChunk*steerChunks)
	for kind, name := range map[string]string{"status": "jobmon.job_us", "position": "jobmon.position_us", "taskstatus": "steering.taskstatus_us"} {
		if v, ok := kinds.median(kind); ok {
			r.layer[name] = v * 1000
		}
	}
	snap := g.Telemetry.Snapshot()
	schedulerLayers(r, snap)
	condorLayers(r, snap)
	end, err := readSteerEnd(g, inputs, submitAt)
	if err != nil {
		return nil, err
	}
	r.layer["scheduler.jobs_launched"] = float64(len(end.jobs["siteA"]) + len(end.jobs["siteB"]))
	e.checks.add(steerViolations(end, inputs, steerNodesPerSite))
	r.live = g
	return r, nil
}

// queue is the frozen picture of the idle jobs between two chunks, read
// from the pools outside the measured time.
type queue struct {
	tasks []queuedTask
	idle  map[string]int // pool -> idle jobs
}

type queuedTask struct {
	plan string
	pool string
	id   int
	pos  int
}

func queuedTasks(g *core.GAE, inputs []steerInput) queue {
	q := queue{idle: map[string]int{}}
	byJob := map[[2]any]string{}
	for _, in := range inputs {
		if cp, ok := g.Plan(in.name); ok {
			if a, ok := cp.Assignment("t0"); ok && a.State == scheduler.TaskSubmitted {
				byJob[[2]any{a.Site, a.CondorID}] = in.name
			}
		}
	}
	for _, site := range g.Sites() {
		pool, _ := g.Pool(site)
		jobs, _ := pool.Jobs()
		for _, j := range jobs {
			if j.Status != condor.StatusIdle {
				continue
			}
			q.idle[site]++
			if plan, ok := byJob[[2]any{site, j.ID}]; ok {
				q.tasks = append(q.tasks, queuedTask{plan: plan, pool: site, id: j.ID, pos: j.QueuePosition})
			}
		}
	}
	return q
}

// steerQueries asks about one queued task three ways and checks the
// answers against the frozen picture: the job is idle, its position lies
// within 1 and the pool's idle count, and the task status names it.
func steerQueries(ctx context.Context, e *env, r *round, tr *spanLog, parent uint64, kinds *kindTimes, c *gae.Client, q queue, t queuedTask) {
	query := func(kind string, call func() error) {
		sp := tr.start("query."+kind, parent, tr.newOp())
		p := startPhase()
		err := call()
		d := p.stop(r)
		sp.end()
		r.ops++
		r.lat = append(r.lat, msOf(d))
		kinds.add(kind, msOf(d))
		r.tally.record(kind, err)
	}
	query("status", func() error {
		s, err := c.JobStatus(ctx, t.pool, t.id)
		if err == nil && s != "idle" {
			e.checks.failf("steer-backlog: queued job %s/%d reports %q", t.pool, t.id, s)
		}
		return err
	})
	query("position", func() error {
		pos, err := c.JobQueuePosition(ctx, t.pool, t.id)
		if err == nil && !queuedAt(pos, q.idle[t.pool], t.pos) {
			e.checks.failf("steer-backlog: job %s/%d at queue position %d of %d idle (pool listing: %d)", t.pool, t.id, pos, q.idle[t.pool], t.pos)
		}
		return err
	})
	query("taskstatus", func() error {
		st, err := c.TaskStatus(ctx, t.plan, "t0")
		if err == nil && (st.Site != t.pool || st.CondorID != t.id || st.Job == nil || st.Job.Status != "idle") {
			e.checks.failf("steer-backlog: task %s/t0 status %s/%d job %+v, want queued %s/%d", t.plan, st.Site, st.CondorID, st.Job, t.pool, t.id)
		}
		return err
	})
}

// steerEnd is the deployment's state at the end of a round, as the
// checks read it.
type steerEnd struct {
	submitAt, now time.Time
	jobs          map[string][]condor.JobInfo     // by site
	assigned      map[string]scheduler.Assignment // task t0 by plan
}

func readSteerEnd(g *core.GAE, inputs []steerInput, submitAt time.Time) (steerEnd, error) {
	end := steerEnd{submitAt: submitAt, now: g.Now(), jobs: map[string][]condor.JobInfo{}, assigned: map[string]scheduler.Assignment{}}
	for _, site := range g.Sites() {
		pool, _ := g.Pool(site)
		js, err := pool.Jobs()
		if err != nil {
			return end, fmt.Errorf("listing %s: %w", site, err)
		}
		end.jobs[site] = js
	}
	for _, in := range inputs {
		if cp, ok := g.Plan(in.name); ok {
			end.assigned[in.name], _ = cp.Assignment("t0")
		}
	}
	return end, nil
}

// steerViolations checks a round's end state: one condor job per task,
// claims on every node that precede or meet, completed work within each
// site's capacity since submission, and staging that delayed each staged
// job by at least the solo transfer time of its input.
func steerViolations(end steerEnd, inputs []steerInput, nodesPerSite int) []string {
	var out []string
	byID := map[string]map[int]condor.JobInfo{}
	byNode := map[string][]claim{}
	total := 0
	for site, js := range end.jobs {
		byID[site] = map[int]condor.JobInfo{}
		var done float64
		for _, j := range js {
			byID[site][j.ID] = j
			if j.Status == condor.StatusCompleted {
				done += j.CPUSeconds
			}
		}
		total += len(js)
		claimsOf(js, end.now, byNode)
		if capacity := float64(nodesPerSite) * end.now.Sub(end.submitAt).Seconds(); done > capacity {
			out = append(out, fmt.Sprintf("steer-backlog: %s completed %.0f CPU-s, capacity %.0f", site, done, capacity))
		}
	}
	if total != len(inputs) {
		out = append(out, fmt.Sprintf("steer-backlog: %d condor jobs for %d tasks", total, len(inputs)))
	}
	if err := checkClaims(byNode); err != nil {
		out = append(out, "steer-backlog: "+err.Error())
	}
	staged := 0
	for _, in := range inputs {
		a, ok := end.assigned[in.name]
		j, okJob := byID[a.Site][a.CondorID]
		if !ok || !okJob {
			out = append(out, fmt.Sprintf("steer-backlog: task %s/t0 (%v at %s/%d) has no condor job", in.name, a.State, a.Site, a.CondorID))
			continue
		}
		if in.input == nil || in.input.Site == a.Site {
			continue
		}
		staged++
		// Latency plus size over the whole link is the fastest the input
		// can arrive; contention only makes it later.
		solo := 50*time.Millisecond + time.Duration(in.input.SizeMB/10*float64(time.Second))
		if j.SubmitTime.Before(end.submitAt.Add(solo)) {
			out = append(out, fmt.Sprintf("steer-backlog: %s submitted %v after its plan, before its %.0f MB input could arrive (%v)",
				in.name, j.SubmitTime.Sub(end.submitAt), in.input.SizeMB, solo))
		}
		if !j.StartTime.IsZero() && j.StartTime.Before(j.SubmitTime) {
			out = append(out, fmt.Sprintf("steer-backlog: %s started before it was submitted", in.name))
		}
	}
	if staged == 0 {
		out = append(out, "steer-backlog: no task staged its input; the workload does not reach simgrid.Network")
	}
	return out
}

// simLayers records the simulator's figures over the measured chunks.
func simLayers(r *round, events int64, wall time.Duration, chunkMs []float64, sim time.Duration) {
	r.layer["simgrid.events"] = float64(events)
	if events > 0 {
		r.layer["simgrid.us_per_event"] = usOf(wall) / float64(events)
	}
	r.layer["simgrid.chunk_ms"] = median(chunkMs)
	if wall > 0 {
		r.layer["simgrid.sim_s_per_wall_s"] = sim.Seconds() / wall.Seconds()
	}
}

// condorLayers sums the pools' negotiation families over sites.
func condorLayers(r *round, snap telemetry.Snapshot) {
	r.layer["condor.passes"] = snap.Total("negotiation_passes_total")
	r.layer["condor.matches"] = snap.Total("negotiation_matches_total")
	var sum float64
	var n int64
	for _, m := range snap.Family("negotiation_pass_seconds") {
		sum += m.Sum
		n += m.Count
	}
	if n > 0 {
		r.layer["condor.pass_ms"] = sum / float64(n) * 1000
	}
}

// queuedAt reports whether a queue-position answer is consistent: within
// 1 and the pool's idle count, and the position the pool listing gave.
func queuedAt(pos, idle, listed int) bool {
	return pos >= 1 && pos <= idle && pos == listed
}
