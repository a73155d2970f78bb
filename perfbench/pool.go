package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
	"repro/internal/telemetry"
)

// pool-backlog: condor pools alone, in the shape of the million-job
// scenario at its smoke scale — ten fair-share pools of 1,000 idle Mips-1
// machines, 100,000 jobs, a 1/128 s tick. Negotiation, classad matching,
// fair-share accrual and the engine heap do most of the work; this is
// the only workload that reaches the million-job scale paths.
//
// An operation is one job lookup after each chunk of simulated time (a
// user asking where a job is); ops_per_s and cpu_us_per_op are taken
// over chunks and lookups together, so they carry the simulator's cost.

const (
	poolPools    = 10
	poolMachines = 1000 // per pool
	poolJobs     = 100_000
	poolTick     = time.Second / 128
	poolBaseNeed = 2000 // CPU-seconds; the seed adds 0-508 whole seconds
	poolChunks   = 100
	poolChunk    = 260 * time.Second // 26,000 s: past the deepest machine's last completion
	poolQueries  = 2                 // lookups after each chunk while jobs are queued
)

func init() { register(workload{name: "pool-backlog", round: poolRound}) }

var poolOwners = []string{"atlas", "cms", "lhcb", "alice"}

// poolJob is one job of the backlog. Needs are whole seconds, so on an
// idle Mips-1 machine at a dyadic tick a job's wall time equals its need
// exactly.
type poolJob struct {
	need  int
	owner string
	prio  int
}

func poolInputs(seed int64, n int) []poolJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]poolJob, n)
	for i := range jobs {
		jobs[i] = poolJob{need: poolBaseNeed + rng.Intn(509), owner: poolOwners[rng.Intn(len(poolOwners))], prio: rng.Intn(2)}
	}
	return jobs
}

// buildPools makes n fair-share pools of idle Mips-1 machines on one
// grid, their negotiation metrics registered in one registry.
func buildPools(seed int64, n, machines int) (*simgrid.Grid, []*condor.Pool, *telemetry.Registry) {
	grid := simgrid.NewGrid(poolTick, seed)
	reg := telemetry.NewRegistry()
	pools := make([]*condor.Pool, n)
	for p := range pools {
		name := fmt.Sprintf("site%d", p)
		site := grid.AddSite(name)
		pool := condor.NewPool(name, grid, site)
		pool.SetTelemetry(reg)
		for i := 0; i < machines; i++ {
			pool.AddMachine(site.AddNode(grid.Engine, fmt.Sprintf("%s-n%04d", name, i), 1, simgrid.IdleLoad()), nil)
		}
		pool.SetFairShare(fairshare.NewManager(fairshare.Config{Clock: grid.Engine.Clock(), HalfLife: time.Hour}))
		pools[p] = pool
	}
	return grid, pools, reg
}

// submitJobs submits input j to pool j mod len(pools).
func submitJobs(pools []*condor.Pool, inputs []poolJob, t *tally) error {
	for j, in := range inputs {
		ad := classad.New().
			Set(condor.AttrOwner, in.owner).
			Set(condor.AttrCpuSeconds, float64(in.need)).
			Set(condor.AttrPriority, in.prio)
		_, err := pools[j%len(pools)].Submit(ad)
		if !t.record("submit", err) {
			return fmt.Errorf("submitting job %d: %w", j, err)
		}
	}
	return nil
}

func poolRound(e *env, traced bool) (*round, error) {
	r := &round{layer: map[string]float64{}, traced: map[string]float64{}}
	tr := e.tracer(traced)
	t0 := time.Now()

	grid, pools, reg := buildPools(e.seed, poolPools, poolMachines)
	// The benchmark follows each pool's idle jobs through its transition
	// events, so lookups can target queued jobs without listing a pool.
	idle := make([]idleSet, poolPools)
	for p, pool := range pools {
		pool.Subscribe(idle[p].follow)
	}
	inputs := poolInputs(e.seed, poolJobs)
	if err := submitJobs(pools, inputs, &r.tally); err != nil {
		return nil, err
	}
	start := grid.Engine.Now()
	r.setup = time.Since(t0)

	var prof *profiler
	var err error
	if traced {
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(e.seed + 1))
	var chunkMs []float64
	var chunkWall time.Duration
	var events int64
	for c := 0; c < poolChunks; c++ {
		step := tr.start("step", 0, tr.newOp())
		sp := tr.start("simgrid.RunFor", step.id(), step.s.Op)
		ev := grid.Engine.Events()
		p := startPhase()
		grid.Engine.RunFor(poolChunk)
		d := p.stop(r)
		sp.end()
		events += grid.Engine.Events() - ev
		chunkWall += d
		chunkMs = append(chunkMs, msOf(d))

		for q := 0; q < poolQueries; q++ {
			poolQuery(e, r, tr, step.id(), rng, pools, idle)
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
	simLayers(r, events, chunkWall, chunkMs, poolChunk*poolChunks)
	condorLayers(r, reg.Snapshot())
	listings := make([][]condor.JobInfo, len(pools))
	for i, pool := range pools {
		if listings[i], err = pool.Jobs(); err != nil {
			return nil, err
		}
	}
	e.checks.add(poolViolations(listings, inputs, poolMachines, start))
	r.live = grid
	return r, nil
}

// poolQuery is one operation: a user asks where one of their queued jobs
// stands. It picks a random idle job from the events the benchmark
// followed and checks the answer against that set.
func poolQuery(e *env, r *round, tr *spanLog, parent uint64, rng *rand.Rand, pools []*condor.Pool, idle []idleSet) {
	k := rng.Intn(poolPools)
	for i := 0; i < poolPools && len(idle[k].ids) == 0; i++ {
		k = (k + 1) % poolPools
	}
	if len(idle[k].ids) == 0 {
		return
	}
	pool, id := pools[k], idle[k].ids[rng.Intn(len(idle[k].ids))]
	q := tr.start("condor.Job", parent, tr.newOp())
	p := startPhase()
	info, err := pool.Job(id)
	d := p.stop(r)
	q.end()
	r.ops++
	r.lat = append(r.lat, msOf(d))
	if r.tally.record("job", err) && !queuedAnswer(info, pool.Name, id, len(idle[k].ids)) {
		e.checks.failf("pool-backlog: queued %s/%d (one of %d idle) answered %s/%d %v at queue position %d",
			pool.Name, id, len(idle[k].ids), info.Pool, info.ID, info.Status, info.QueuePosition)
	}
}

// queuedAnswer reports whether a lookup of a queued job is consistent:
// it names the job, calls it idle, and places it within 1 and the pool's
// idle count.
func queuedAnswer(info condor.JobInfo, pool string, id, idle int) bool {
	return info.ID == id && info.Pool == pool && info.Status == condor.StatusIdle &&
		info.QueuePosition >= 1 && info.QueuePosition <= idle
}

// poolViolations checks the drained backlog, given each pool's job
// listing (pool p received inputs p, p+pools, ... in ID order): every
// job completed, claims on each node precede or meet, each job's wall
// time equals its CPU need exactly, and the makespan is at least the
// independent lower bound max(sum of needs per pool / machines, largest
// need).
func poolViolations(listings [][]condor.JobInfo, inputs []poolJob, machines int, start time.Time) []string {
	var out []string
	pools := len(listings)
	var bound float64
	sums := make([]float64, pools)
	for j, in := range inputs {
		sums[j%pools] += float64(in.need)
		bound = max(bound, float64(in.need))
	}
	for _, s := range sums {
		bound = max(bound, s/float64(machines))
	}
	end := start
	byNode := map[string][]claim{}
	listed := 0
	for p, jobs := range listings {
		listed += len(jobs)
		for k, j := range jobs {
			if p+k*pools >= len(inputs) {
				out = append(out, fmt.Sprintf("pool-backlog: %s/%d was never submitted", j.Pool, j.ID))
				continue
			}
			need := time.Duration(inputs[p+k*pools].need) * time.Second
			if j.Status != condor.StatusCompleted {
				out = append(out, fmt.Sprintf("pool-backlog: %s/%d is %v at the horizon", j.Pool, j.ID, j.Status))
				continue
			}
			if wall := j.CompletionTime.Sub(j.StartTime); wall != need || j.CPUSeconds != need.Seconds() {
				out = append(out, fmt.Sprintf("pool-backlog: %s/%d ran %v wall, %.6f CPU-s for a %v need", j.Pool, j.ID, wall, j.CPUSeconds, need))
			}
			if j.CompletionTime.After(end) {
				end = j.CompletionTime
			}
		}
		claimsOf(jobs, end, byNode)
	}
	if listed != len(inputs) {
		out = append(out, fmt.Sprintf("pool-backlog: %d jobs listed for %d submitted", listed, len(inputs)))
	}
	if err := checkClaims(byNode); err != nil {
		out = append(out, "pool-backlog: "+err.Error())
	}
	if makespan := end.Sub(start).Seconds(); makespan < bound {
		out = append(out, fmt.Sprintf("pool-backlog: makespan %.0fs below the lower bound %.0fs", makespan, bound))
	}
	return out
}

// idleSet tracks one pool's idle jobs from its transition events. Its
// listener runs inside the measured chunks, on every job transition, so
// it is kept to slice updates: under 1 % of a round's measured CPU.
type idleSet struct {
	ids []int
	at  []int // job ID -> 1 + index in ids; 0 when the job is not idle
}

func (s *idleSet) follow(ev condor.Event) {
	switch {
	case ev.To == condor.StatusIdle:
		for len(s.at) <= ev.JobID {
			s.at = append(s.at, 0)
		}
		if s.at[ev.JobID] == 0 {
			s.ids = append(s.ids, ev.JobID)
			s.at[ev.JobID] = len(s.ids)
		}
	case ev.From == condor.StatusIdle:
		if ev.JobID >= len(s.at) || s.at[ev.JobID] == 0 {
			return
		}
		i, last := s.at[ev.JobID]-1, s.ids[len(s.ids)-1]
		s.ids[i] = last
		s.at[last] = i + 1
		s.ids = s.ids[:len(s.ids)-1]
		s.at[ev.JobID] = 0
	}
}
