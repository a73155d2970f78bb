package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/pkg/gae"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.90, 50}, {1, 50},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (nearest rank, no interpolation)", got)
	}
	if got := percentile(ten, 0.91); got != 10 {
		t.Errorf("p91 of 1..10 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4 values = %v, want the lower middle 2", got)
	}
}

func TestClaimCheckerRejectsOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	fine := map[string][]claim{
		// meets (10 = 10), precedes (20 < 30), listed out of order
		"n0": {{job: 3, start: at(30), end: at(40)}, {job: 1, start: at(0), end: at(10)}, {job: 2, start: at(10), end: at(20)}},
		"n1": {{job: 4, start: at(5), end: at(6)}},
	}
	if err := checkClaims(fine); err != nil {
		t.Fatalf("precede/meet claims rejected: %v", err)
	}
	for name, bad := range map[string][]claim{
		"overlap":       {{job: 1, start: at(0), end: at(10)}, {job: 2, start: at(9), end: at(20)}},
		"same start":    {{job: 1, start: at(0), end: at(10)}, {job: 2, start: at(0), end: at(5)}},
		"contained":     {{job: 1, start: at(0), end: at(30)}, {job: 2, start: at(10), end: at(20)}},
		"ends too soon": {{job: 1, start: at(10), end: at(5)}},
	} {
		if err := checkClaims(map[string][]claim{"n0": bad}); err == nil {
			t.Errorf("%s: checker accepted %+v", name, bad)
		}
	}
}

func TestStateComparisonRejectsOneFieldDifference(t *testing.T) {
	ctx := context.Background()
	g := core.New(gridConfig(1, 2))
	if _, err := g.Client(benchUser).Submit(ctx, singleTask("p", 100)); err != nil {
		t.Fatal(err)
	}
	a, err := g.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := diffStates(a, b); err != nil || diff != "" {
		t.Fatalf("two captures of one state differ: %q %v", diff, err)
	}
	b.Pools[0].NextID++
	diff, err := diffStates(a, b)
	if err != nil || !strings.Contains(diff, "next_id") {
		t.Fatalf("one-field difference reported as %q (%v), want the next_id line", diff, err)
	}
}

func TestFailedOperationIsCountedAndRunContinues(t *testing.T) {
	after := 0
	w := workload{name: "fake", round: func(e *env, traced bool) (*round, error) {
		r := &round{layer: map[string]float64{}, traced: map[string]float64{}}
		r.tally.record("first", nil)
		r.tally.record("injected", errors.New("boom"))
		if r.tally.record("after", nil) {
			after++
		}
		r.ops, r.wall, r.lat = 3, time.Millisecond, []float64{1, 2, 3}
		return r, nil
	}}
	e := &env{seed: 1, budget: 5 * time.Millisecond, checks: &checks{}}
	res, rep, err := run(w, e)
	if err != nil {
		t.Fatal(err)
	}
	if rep.rounds < 1 || after != rep.rounds {
		t.Fatalf("%d rounds, %d reached the operation after the failure", rep.rounds, after)
	}
	if res.Attempted != 3*rep.rounds || res.Failed != rep.rounds || !res.Correct {
		t.Fatalf("got attempted %d failed %d correct %v over %d rounds", res.Attempted, res.Failed, res.Correct, rep.rounds)
	}
	if rep.tally.byClass["injected:other"] != rep.rounds {
		t.Fatalf("failure classes %v", rep.tally.byClass)
	}
}

func TestRaceErrorsAreClassified(t *testing.T) {
	for _, c := range []struct {
		op, msg, want string
	}{
		{"steer", "steering: task p/t0 is not submitted (state staging)", "race"},
		{"steer", "condor: no such job: 7", "race"},
		{"steer", "steering: not authorized", "other"},
		{"plan", "condor: no such job: 7", "other"},
		{"single-launch", "9 condor jobs for 8 acknowledged tasks", "race"},
	} {
		if got := classify(c.op, errors.New(c.msg)); got != c.want {
			t.Errorf("classify(%s, %q) = %s, want %s", c.op, c.msg, got, c.want)
		}
	}
}

func TestFrozenPoolChecksRejectCorruption(t *testing.T) {
	now := time.Unix(10_000, 0)
	mk := func(id int, status string, wall float64, pos int) wireJob {
		return wireJob{pool: "siteA", id: id, status: status, wall: wall, info: gae.JobInfo{
			ID: id, Pool: "siteA", Status: status, SubmitTime: now.Add(-time.Hour), QueuePosition: pos, WallclockSeconds: wall,
		}}
	}
	good := func() []wireJob {
		return []wireJob{mk(1, "running", 600, 0), mk(2, "running", 600, 0), mk(3, "idle", 0, 2), mk(4, "idle", 0, 1)}
	}
	if vs := frozenPoolViolations(good(), now, 2); len(vs) != 0 {
		t.Fatalf("valid pool rejected: %v", vs)
	}
	for name, corrupt := range map[string]func([]wireJob){
		"more running than nodes": func(js []wireJob) { js[2] = mk(3, "running", 1, 0) },
		"ran longer than it existed": func(js []wireJob) {
			js[0].wall = 2 * 3600
		},
		"positions not 1..k":       func(js []wireJob) { js[3].info.QueuePosition = 3 },
		"answer names another job": func(js []wireJob) { js[1].info.ID = 9 },
	} {
		js := good()
		corrupt(js)
		if vs := frozenPoolViolations(js, now, 2); len(vs) == 0 {
			t.Errorf("%s: not rejected", name)
		}
	}
	j := good()[2]
	if m := j.mismatch("status", "running"); m == "" {
		t.Error("a status reply that differs from the local answer was accepted")
	}
	if m := j.mismatch("wallclock", 1.5); m == "" {
		t.Error("a wallclock reply that differs from the local answer was accepted")
	}
	wire := j.info
	wire.SubmitTime = wire.SubmitTime.Add(300 * time.Millisecond) // below the wire's precision
	if m := j.mismatch("info", wire); m != "" {
		t.Errorf("an equal reply was rejected: %s", m)
	}
	wire.QueuePosition = 1
	if m := j.mismatch("info", wire); m == "" {
		t.Error("an info reply with another queue position was accepted")
	}
}

// sequentialSession runs the session mix with the two clients one after
// the other, so no submission races another.
func sequentialSession(t *testing.T, store *durable.Store) (*core.GAE, []*sessionClient, *env, *round) {
	t.Helper()
	ctx := context.Background()
	g := core.New(sessionConfig(1))
	if store != nil {
		if err := g.AttachStore(store); err != nil {
			t.Fatal(err)
		}
	}
	e := &env{seed: 1, checks: &checks{}}
	r := &round{layer: map[string]float64{}, traced: map[string]float64{}}
	kinds := &kindTimes{}
	var cs []*sessionClient
	for i := 0; i < clients; i++ {
		c := &sessionClient{id: i, c: g.Client(benchUser), prio: -1, state: map[string]string{}, kinds: kinds,
			home: "home" + string(rune('a'+i))}
		c.rng = newSessionRNG(e.seed, i)
		if _, err := c.c.Submit(ctx, singleTask(c.home, 3600)); err != nil {
			t.Fatal(err)
		}
		c.plans, c.lastPlan = []string{c.home}, c.home
		c.run(ctx, e, r, nil, nil)
		cs = append(cs, c)
	}
	if !e.checks.ok() || r.tally.failed != 0 {
		t.Fatalf("sequential session: violations %v, failures %v", e.checks.violations, r.tally.examples)
	}
	return g, cs, e, r
}

func TestSessionChecksRejectCorruption(t *testing.T) {
	ctx := context.Background()
	g, cs, e, r := sequentialSession(t, nil)
	sessionChecks(ctx, e, g, cs)
	singleLaunch(e, r, g, cs)
	if !e.checks.ok() || r.tally.failed != 0 {
		t.Fatalf("sequential session failed its checks: %v %v", e.checks.violations, r.tally.examples)
	}
	if cs[0].prio < 0 || len(cs[0].state) == 0 {
		t.Fatal("the mix neither steered nor set a key; the checks would be vacuous")
	}
	other := g.Client(benchUser)
	for name, corrupt := range map[string]func() error{
		"a key overwritten": func() error {
			for k := range cs[0].state {
				return other.SetState(ctx, k, "clobbered")
			}
			return nil
		},
		"a priority changed": func() error { return other.SetPriority(ctx, cs[0].home, "t0", cs[0].prio+1) },
		"an acknowledged plan missing": func() error {
			cs[1].plans = append(cs[1].plans, "never-submitted")
			return nil
		},
	} {
		if err := corrupt(); err != nil {
			t.Fatal(err)
		}
		e.checks = &checks{}
		sessionChecks(ctx, e, g, cs)
		if e.checks.ok() {
			t.Errorf("%s: not rejected", name)
		}
	}
	cs[1].plans = cs[1].plans[:len(cs[1].plans)-1]
	// A second condor job for an acknowledged task.
	pool, _ := g.Pool("siteA")
	if _, err := pool.Submit(classadFor(benchUser, 100)); err != nil {
		t.Fatal(err)
	}
	before := r.tally.failed
	singleLaunch(e, r, g, cs)
	if r.tally.failed != before+1 || r.layer["scheduler.dup_launches"] != 1 {
		t.Fatalf("an extra condor job was not counted: failed %d→%d, dup %v", before, r.tally.failed, r.layer["scheduler.dup_launches"])
	}
}

func TestRecoveryPassesWithoutConcurrency(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, _, _, r := sequentialSession(t, store)
	recoverAndCompare(r, g, store, dir, sessionConfig(1))
	if r.tally.failed != 0 {
		t.Fatalf("recovery of a sequential session failed: %v", r.tally.examples)
	}
}

func TestSteerChecksRejectCorruption(t *testing.T) {
	ctx := context.Background()
	g := core.New(gridConfig(1, steerNodesPerSite))
	inputs := steerInputs(1)
	submitAt := g.Now()
	for _, in := range inputs {
		var files []gae.FileSpec
		if in.input != nil {
			if err := g.PutDataset(in.input.Site, in.input.Name, in.input.SizeMB); err != nil {
				t.Fatal(err)
			}
			files = []gae.FileSpec{{Name: in.input.Name}}
		}
		if _, err := g.Client(benchUser).Submit(ctx, singleTask(in.name, in.cpu, files...)); err != nil {
			t.Fatal(err)
		}
	}
	g.Run(45 * time.Minute)
	read := func() steerEnd {
		end, err := readSteerEnd(g, inputs, submitAt)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if vs := steerViolations(read(), inputs, steerNodesPerSite); len(vs) != 0 {
		t.Fatalf("valid end state rejected: %v", vs)
	}
	staged := ""
	for _, in := range inputs {
		if in.input != nil && read().assigned[in.name].Site != in.input.Site {
			staged = in.name
			break
		}
	}
	for name, corrupt := range map[string]func(*steerEnd){
		"a second job for a task": func(end *steerEnd) {
			end.jobs["siteA"] = append(end.jobs["siteA"], end.jobs["siteA"][0])
		},
		"overlapping claims": func(end *steerEnd) {
			js := end.jobs["siteA"]
			for i := range js {
				for k := range js {
					if i != k && js[i].Node != "" && js[i].Node == js[k].Node {
						js[k].StartTime = js[i].StartTime
						return
					}
				}
			}
			t.Fatal("no node ran two jobs")
		},
		"more work than capacity": func(end *steerEnd) {
			for _, js := range end.jobs {
				for i, j := range js {
					if j.Status == condor.StatusCompleted {
						js[i].CPUSeconds = 1e9
						return
					}
				}
			}
			t.Fatal("no completed job")
		},
		"input arrived too soon": func(end *steerEnd) {
			a := end.assigned[staged]
			js := end.jobs[a.Site]
			for i := range js {
				if js[i].ID == a.CondorID {
					js[i].SubmitTime = end.submitAt
				}
			}
		},
	} {
		end := read()
		corrupt(&end)
		if vs := steerViolations(end, inputs, steerNodesPerSite); len(vs) == 0 {
			t.Errorf("%s: not rejected", name)
		}
	}
	if !queuedAt(3, 5, 3) || queuedAt(0, 5, 0) || queuedAt(6, 5, 6) || queuedAt(2, 5, 3) {
		t.Error("queue-position check accepts an answer outside 1..idle or unlike the listing")
	}
}

func TestPoolChecksRejectCorruption(t *testing.T) {
	const pools, machines = 2, 4
	grid, ps, _ := buildPools(1, pools, machines)
	inputs := poolInputs(1, 40)
	if err := submitJobs(ps, inputs, &tally{}); err != nil {
		t.Fatal(err)
	}
	start := grid.Engine.Now()
	grid.Engine.RunFor(30_000 * time.Second)
	read := func() [][]condor.JobInfo {
		out := make([][]condor.JobInfo, len(ps))
		for i, p := range ps {
			js, err := p.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = js
		}
		return out
	}
	if vs := poolViolations(read(), inputs, machines, start); len(vs) != 0 {
		t.Fatalf("valid drained pools rejected: %v", vs)
	}
	for name, corrupt := range map[string]func([][]condor.JobInfo) time.Time{
		"a job not completed": func(l [][]condor.JobInfo) time.Time { l[0][3].Status = condor.StatusIdle; return start },
		"wall time unlike need": func(l [][]condor.JobInfo) time.Time {
			l[1][2].CompletionTime = l[1][2].CompletionTime.Add(time.Second)
			return start
		},
		"overlapping claims": func(l [][]condor.JobInfo) time.Time {
			for k := range l[0] {
				if k > 0 && l[0][k].Node == l[0][0].Node {
					l[0][k].StartTime = l[0][0].StartTime
					l[0][k].CompletionTime = l[0][0].CompletionTime
					return start
				}
			}
			t.Fatal("no node ran two jobs")
			return start
		},
		"makespan below the bound": func(l [][]condor.JobInfo) time.Time { return start.Add(25_000 * time.Second) },
	} {
		l := read()
		from := corrupt(l)
		if vs := poolViolations(l, inputs, machines, from); len(vs) == 0 {
			t.Errorf("%s: not rejected", name)
		}
	}
	idle := condor.JobInfo{ID: 7, Pool: "site0", Status: condor.StatusIdle, QueuePosition: 4}
	if !queuedAnswer(idle, "site0", 7, 4) || queuedAnswer(idle, "site0", 7, 3) || queuedAnswer(idle, "site1", 7, 9) {
		t.Error("queued-answer check accepts a position beyond the idle count or another pool's job")
	}
}

func TestProfileAttribution(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"sort.insertionSort", "repro/internal/condor.(*Pool).idleOrderedLocked"}, "condor"},
		{[]string{"runtime.mallocgc", "repro/internal/condor.positionsOf", "repro/internal/steering.(*Service).pollTask"}, "condor"},
		{[]string{"runtime.mapassign_fast64", "runtime.growslice", "repro/internal/classad.(*Ad).Set"}, "classad"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mallocgc", "main.(*sessionClient).run"}, "other"},
		{[]string{"encoding/xml.(*Decoder).Token", "repro/internal/xmlrpc.decodeValue"}, "xmlrpc"},
		{[]string{"repro/pkg/gae.Handler2[...].func1"}, "core"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"repro/internal/telemetry.(*Histogram).Observe"}, "other"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; x++ {
	}
	cpu, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	if total <= 0 || len(cpu) != len(reportedModules)+1 {
		t.Fatalf("profile of a busy loop summed to %v over %d modules", total, len(cpu))
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end %d: %s %s in BENCHMARK.json, %s %s in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer %d: %s %s in BENCHMARK.json, %s %s in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func classadFor(owner string, cpu float64) *classad.Ad {
	return classad.New().Set(condor.AttrOwner, owner).Set(condor.AttrCpuSeconds, cpu)
}
