package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

// monitor-wire: the paper's Figure 6 traffic. Two closed-loop clients
// call jobmon.status, jobmon.info and jobmon.wallclock over Clarens
// XML-RPC on loopback against a shallow pool whose simulated time is
// frozen after a warm-up, so HTTP, session checks and the XML-RPC codec
// do nearly all the work and nothing is journaled.

const (
	benchUser = "alice"
	benchPass = "secret"
	clients   = 2

	wireJobs           = 10
	wireNodesPerSite   = 4
	wireWarmup         = 10 * time.Minute
	wireCallsPerClient = 4000
	// wireCaptures bounds the request/response pairs a traced round keeps
	// for the codec replay.
	wireCaptures = 400
	// wireLocalCalls is the length of the local-transport replay of the
	// same query mix (jobmon.local_us).
	wireLocalCalls = 2000
)

func init() { register(workload{name: "monitor-wire", round: wireRound}) }

// gridConfig is the two-site deployment the serving and steering
// workloads share: nodesPerSite Mips-1 nodes per site, idle, joined by a
// 10 MB/s link with 50 ms latency.
func gridConfig(seed int64, nodesPerSite int) core.Config {
	return core.Config{
		Seed: seed,
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: nodesPerSite, CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: nodesPerSite, CostPerCPUSecond: 0.02},
		},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10, LatencyMS: 50}},
		Users: []core.UserSpec{{Name: benchUser, Password: benchPass, Credits: 1e12, Admin: true}},
	}
}

// singleTask is a one-task plan of cpu seconds.
func singleTask(name string, cpu float64, inputs ...gae.FileSpec) gae.PlanSpec {
	return gae.PlanSpec{Name: name, Tasks: []gae.TaskSpec{{
		ID: "t0", CPUSeconds: cpu, Queue: "batch", Nodes: 1, ReqHours: 2, Inputs: inputs,
	}}}
}

// wireJob is one monitored job with the answers the local transport gave
// for it once simulated time froze.
type wireJob struct {
	pool   string
	id     int
	info   gae.JobInfo
	status string
	wall   float64
}

// wireCall is one scheduled query: which job, which method.
type wireCall struct {
	job  int
	kind string // "status", "info" or "wallclock"
}

var wireKinds = []string{"status", "info", "wallclock"}

// wireCalls draws a client's query sequence from the seed.
func wireCalls(seed int64, client, n int) []wireCall {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	out := make([]wireCall, n)
	for i := range out {
		out[i] = wireCall{job: rng.Intn(wireJobs), kind: wireKinds[rng.Intn(len(wireKinds))]}
	}
	return out
}

func wireRound(e *env, traced bool) (*round, error) {
	ctx := context.Background()
	r := &round{layer: map[string]float64{}, traced: map[string]float64{}}
	tr := e.tracer(traced)
	t0 := time.Now()

	g := core.New(gridConfig(e.seed, wireNodesPerSite))
	local := g.Client(benchUser)
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < wireJobs; i++ {
		_, err := local.Submit(ctx, singleTask(fmt.Sprintf("mon-%d", i), 3600+rng.Float64()*3600))
		if !r.tally.record("submit", err) {
			return nil, fmt.Errorf("submitting the monitored pool: %w", err)
		}
	}
	g.Run(wireWarmup)
	jobs, err := wireOracle(ctx, local)
	if err != nil {
		return nil, err
	}
	e.checks.add(frozenPoolViolations(jobs, g.Now(), wireNodesPerSite))

	w := &wireTrace{log: tr, serve: map[uint64]time.Duration{}, rt: map[uint64]time.Duration{},
		callTime: map[uint64]time.Duration{}, captured: map[string][][2][]byte{}}
	var handler http.Handler = g.Handler()
	if traced {
		handler = w.server(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	url := "http://" + ln.Addr().String()

	transports := make([]*http.Transport, clients)
	conns := make([]*gae.Client, clients)
	for c := range conns {
		transports[c] = &http.Transport{MaxIdleConnsPerHost: 1}
		var rt http.RoundTripper = transports[c]
		if traced {
			rt = w.transport(rt)
		}
		conns[c], err = gae.Dial(ctx, url, gae.WithCredentials(benchUser, benchPass), gae.WithTransport(rt))
		if err != nil {
			return nil, fmt.Errorf("dialing %s: %w", url, err)
		}
	}
	defer func() {
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}()
	calls := make([][]wireCall, clients)
	for c := range calls {
		calls[c] = wireCalls(e.seed, c, wireCallsPerClient)
	}
	r.setup = time.Since(t0)

	var prof *profiler
	if traced {
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	p := startPhase()
	lat := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]float64, 0, len(calls[c]))
			for _, call := range calls[c] {
				d := w.call(ctx, e, r, conns[c], jobs[call.job], call.kind)
				lat[c] = append(lat[c], msOf(d))
			}
		}(c)
	}
	wg.Wait()
	p.stop(r)
	if prof != nil {
		cpu, err := prof.stop()
		if err != nil {
			return nil, err
		}
		for k, v := range cpu {
			r.traced[k] = v
		}
	}
	for _, l := range lat {
		r.lat = append(r.lat, l...)
		r.ops += len(l)
	}
	r.perAlloc = float64(r.ops)

	if traced {
		w.layers(r)
		w.replay(e, r)
		localMix(ctx, e, tr, r, local, jobs, calls[0][:wireLocalCalls])
	}
	r.live = g
	return r, nil
}

// wireOracle reads every monitored job over the local transport once
// simulated time has frozen.
func wireOracle(ctx context.Context, local *gae.Client) ([]wireJob, error) {
	jobs := make([]wireJob, wireJobs)
	for i := range jobs {
		st, err := local.TaskStatus(ctx, fmt.Sprintf("mon-%d", i), "t0")
		if err != nil {
			return nil, err
		}
		j := &jobs[i]
		j.pool, j.id = st.Site, st.CondorID
		if j.info, err = local.Job(ctx, j.pool, j.id); err != nil {
			return nil, err
		}
		if j.status, err = local.JobStatus(ctx, j.pool, j.id); err != nil {
			return nil, err
		}
		if j.wall, err = local.JobWallclock(ctx, j.pool, j.id); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// frozenPoolViolations checks the properties a frozen shallow pool must
// have: each answer names its job, running jobs fit the nodes, no job
// has run longer than it has existed, and the idle jobs of each pool
// hold queue positions exactly 1..k.
func frozenPoolViolations(jobs []wireJob, now time.Time, nodes int) []string {
	var out []string
	running := map[string]int{}
	positions := map[string][]int{}
	for _, j := range jobs {
		if j.info.ID != j.id || j.info.Pool != j.pool || j.info.Status != j.status {
			out = append(out, fmt.Sprintf("monitor-wire: info for %s/%d names %s/%d status %q (status call: %q)",
				j.pool, j.id, j.info.Pool, j.info.ID, j.info.Status, j.status))
		}
		if since := now.Sub(j.info.SubmitTime).Seconds(); j.wall > since {
			out = append(out, fmt.Sprintf("monitor-wire: job %s/%d ran %.0fs but was submitted %.0fs ago", j.pool, j.id, j.wall, since))
		}
		switch j.status {
		case "running":
			running[j.pool]++
		case "idle":
			positions[j.pool] = append(positions[j.pool], j.info.QueuePosition)
		}
	}
	for pool, n := range running {
		if n > nodes {
			out = append(out, fmt.Sprintf("monitor-wire: %d jobs running on %d nodes at %s", n, nodes, pool))
		}
	}
	for pool, ps := range positions {
		seen := make([]bool, len(ps)+1)
		for _, q := range ps {
			if q < 1 || q > len(ps) || seen[q] {
				out = append(out, fmt.Sprintf("monitor-wire: %s idle queue positions %v are not 1..%d", pool, ps, len(ps)))
				break
			}
			seen[q] = true
		}
	}
	return out
}

// mismatch compares a wire reply with the frozen local answer; it
// returns "" when they agree.
func (j wireJob) mismatch(kind string, got any) string {
	switch kind {
	case "status":
		if got != j.status {
			return fmt.Sprintf("status %v, local %q", got, j.status)
		}
	case "info":
		if info, ok := got.(gae.JobInfo); !ok || !sameInfo(info, j.info) {
			return fmt.Sprintf("info %+v, local %+v", got, j.info)
		}
	case "wallclock":
		if got != j.wall {
			return fmt.Sprintf("wallclock %v, local %v", got, j.wall)
		}
	}
	return ""
}

// wireTrace holds a traced wire round's instrumentation: a timing
// wrapper around core.GAE.Handler on the server side and a capturing
// round-tripper on the client side, joined per operation by a header.
type wireTrace struct {
	log *spanLog

	mu       sync.Mutex
	serve    map[uint64]time.Duration // server time by op
	rt       map[uint64]time.Duration // client round trip by op
	callTime map[uint64]time.Duration
	captured map[string][][2][]byte // method -> request/response bodies
	nCapture int
}

type opKey struct{}

type opRef struct{ op, parent uint64 }

const (
	opHeader     = "X-Perfbench-Op"
	parentHeader = "X-Perfbench-Span"
)

// call issues one query and checks the reply against the frozen
// local-transport answer. It returns the call's latency.
func (w *wireTrace) call(ctx context.Context, e *env, r *round, c *gae.Client, j wireJob, kind string) time.Duration {
	op := w.log.newOp()
	sp := w.log.start("jobmon."+kind, 0, op)
	if w.log != nil {
		ctx = context.WithValue(ctx, opKey{}, opRef{op: op, parent: sp.id()})
	}
	t := time.Now()
	var got any
	var err error
	switch kind {
	case "status":
		got, err = c.JobStatus(ctx, j.pool, j.id)
	case "info":
		got, err = c.Job(ctx, j.pool, j.id)
	case "wallclock":
		got, err = c.JobWallclock(ctx, j.pool, j.id)
	}
	d := time.Since(t)
	sp.end()
	if r.tally.record("jobmon."+kind, err) {
		if m := j.mismatch(kind, got); m != "" {
			e.checks.failf("monitor-wire: %s/%d: %s", j.pool, j.id, m)
		}
	}
	if w.log != nil {
		w.mu.Lock()
		w.callTime[op] = d
		w.mu.Unlock()
	}
	return d
}

// sameInfo compares a wire reply with the local answer. The wire carries
// times at whole-second precision; simulated time moves in whole seconds
// here, so equal instants compare equal.
func sameInfo(a, b gae.JobInfo) bool {
	norm := func(t time.Time) time.Time { return t.UTC().Truncate(time.Second) }
	for _, p := range [][2]*time.Time{{&a.SubmitTime, &b.SubmitTime}, {&a.StartTime, &b.StartTime}, {&a.CompletionTime, &b.CompletionTime}} {
		if !norm(*p[0]).Equal(norm(*p[1])) {
			return false
		}
		*p[0], *p[1] = time.Time{}, time.Time{}
	}
	return a == b
}

// server wraps the Clarens handler to time each request end to end on
// the server side: body read, decode, session check, dispatch, encode
// and write into the response buffer.
func (w *wireTrace) server(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		op, _ := strconv.ParseUint(req.Header.Get(opHeader), 10, 64)
		parent, _ := strconv.ParseUint(req.Header.Get(parentHeader), 10, 64)
		t := time.Now()
		h.ServeHTTP(rw, req)
		d := time.Since(t)
		w.log.record("clarens.serve", parent, op, t, d)
		if op != 0 {
			w.mu.Lock()
			w.serve[op] = d
			w.mu.Unlock()
		}
	})
}

// transport wraps the client's round-tripper: it stamps the operation
// headers, times the round trip through the last response byte, and
// keeps a bounded sample of request/response bodies for the codec
// replay.
func (w *wireTrace) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ref, _ := req.Context().Value(opKey{}).(opRef)
		var body []byte
		if req.Body != nil {
			var err error
			if body, err = io.ReadAll(req.Body); err != nil {
				return nil, err
			}
			req.Body.Close()
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		if ref.op != 0 {
			req.Header.Set(opHeader, strconv.FormatUint(ref.op, 10))
		}
		sp := w.log.start("clarens.roundtrip", ref.parent, ref.op)
		req.Header.Set(parentHeader, strconv.FormatUint(sp.id(), 10))
		t := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		d := time.Since(t)
		sp.end()
		resp.Body = io.NopCloser(bytes.NewReader(respBody))
		w.mu.Lock()
		if ref.op != 0 {
			w.rt[ref.op] = d
		}
		if w.nCapture < wireCaptures {
			m := methodOf(body)
			w.captured[m] = append(w.captured[m], [2][]byte{body, respBody})
			w.nCapture++
		}
		w.mu.Unlock()
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func methodOf(body []byte) string {
	const open, close = "<methodName>", "</methodName>"
	i := bytes.Index(body, []byte(open))
	j := bytes.Index(body, []byte(close))
	if i < 0 || j < i {
		return "?"
	}
	return string(body[i+len(open) : j])
}

// layers splits each traced call into server time, wire time (round
// trip minus server) and client time (call minus round trip).
func (w *wireTrace) layers(r *round) {
	var serve, wire, client []float64
	for op, call := range w.callTime {
		s, okS := w.serve[op]
		rt, okR := w.rt[op]
		if !okS || !okR {
			continue
		}
		serve = append(serve, usOf(s))
		wire = append(wire, usOf(rt-s))
		client = append(client, usOf(call-rt))
	}
	if len(serve) > 0 {
		r.traced["clarens.serve_us"] = median(serve)
		r.traced["clarens.wire_us"] = median(wire)
		r.traced["clarens.client_us"] = median(client)
	}
}

// replay runs the captured bodies back through the codec alone:
// decoding the request, encoding the response value, decoding the
// response. Allocations are counted over the whole replay per call.
func (w *wireTrace) replay(e *env, r *round) {
	var pairs [][2][]byte
	for _, ps := range w.captured {
		pairs = append(pairs, ps...)
	}
	if len(pairs) == 0 {
		return
	}
	root := w.log.start("xmlrpc.replay", 0, w.log.newOp())
	var dreq, enc, dresp []float64
	mem := readAlloc()
	for _, pr := range pairs {
		op := w.log.newOp()
		sp := w.log.start("xmlrpc.DecodeRequest", root.id(), op)
		t := time.Now()
		_, errReq := xmlrpc.DecodeRequest(bytes.NewReader(pr[0]))
		dreq = append(dreq, usOf(time.Since(t)))
		sp.end()
		sp = w.log.start("xmlrpc.DecodeResponse", root.id(), op)
		t = time.Now()
		v, errResp := xmlrpc.DecodeResponse(bytes.NewReader(pr[1]))
		dresp = append(dresp, usOf(time.Since(t)))
		sp.end()
		sp = w.log.start("xmlrpc.EncodeResponse", root.id(), op)
		t = time.Now()
		_, errEnc := xmlrpc.EncodeResponse(v)
		enc = append(enc, usOf(time.Since(t)))
		sp.end()
		if errReq != nil || errResp != nil || errEnc != nil {
			e.checks.failf("monitor-wire: codec replay of %s: %v %v %v", methodOf(pr[0]), errReq, errResp, errEnc)
		}
	}
	allocs := readAlloc().mallocs - mem.mallocs
	root.end()
	r.traced["xmlrpc.decode_request_us"] = median(dreq)
	r.traced["xmlrpc.encode_response_us"] = median(enc)
	r.traced["xmlrpc.decode_response_us"] = median(dresp)
	r.traced["xmlrpc.allocs_per_call"] = float64(allocs) / float64(len(pairs))
}

// localMix replays a client's query sequence over the local transport:
// the floor a wire-path change cannot go below.
func localMix(ctx context.Context, e *env, tr *spanLog, r *round, c *gae.Client, jobs []wireJob, calls []wireCall) {
	ds := make([]float64, 0, len(calls))
	for _, call := range calls {
		j := jobs[call.job]
		sp := tr.start("jobmon.local."+call.kind, 0, tr.newOp())
		t := time.Now()
		var err error
		switch call.kind {
		case "status":
			_, err = c.JobStatus(ctx, j.pool, j.id)
		case "info":
			_, err = c.Job(ctx, j.pool, j.id)
		case "wallclock":
			_, err = c.JobWallclock(ctx, j.pool, j.id)
		}
		ds = append(ds, usOf(time.Since(t)))
		sp.end()
		if err != nil {
			e.checks.failf("monitor-wire: local %s of %s/%d: %v", call.kind, j.pool, j.id, err)
		}
	}
	r.traced["jobmon.local_us"] = median(ds)
}
