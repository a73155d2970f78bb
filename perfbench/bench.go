package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark drives through the stack.
// round builds a fresh deployment from the seed's inputs, runs one
// measured phase on it and checks the outputs; every round of a run
// performs the same operations, so failed/attempted is the same share in
// every run whatever its length.
type workload struct {
	name  string
	round func(e *env, traced bool) (*round, error)
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

// env is what a round needs from the run: the seed, whether to trace,
// where to write, and the shared check and span sinks.
type env struct {
	seed    int64
	budget  time.Duration
	traced  bool
	workDir string
	checks  *checks
	spans   spanLog
}

// tracer returns the span log for a traced round and nil otherwise.
func (e *env) tracer(traced bool) *spanLog {
	if traced {
		return &e.spans
	}
	return nil
}

// checks collects property violations. Any violation makes the run's
// "correct" false; the run itself continues so every round is whole.
type checks struct {
	mu         sync.Mutex
	violations []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

func (c *checks) add(vs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, vs...)
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) == 0
}

// tally counts operations attempted and failed. A failed operation is
// recorded with its class and the run goes on.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	byClass   map[string]int
	examples  map[string]string
}

// record counts one operation; it returns err == nil.
func (t *tally) record(op string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	class := op + ":" + classify(op, err)
	if t.byClass == nil {
		t.byClass = map[string]int{}
		t.examples = map[string]string{}
	}
	t.byClass[class]++
	if _, seen := t.examples[class]; !seen {
		t.examples[class] = err.Error()
	}
	return false
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.byClass {
		if t.byClass == nil {
			t.byClass = map[string]int{}
			t.examples = map[string]string{}
		}
		t.byClass[k] += v
		if _, seen := t.examples[k]; !seen {
			t.examples[k] = o.examples[k]
		}
	}
}

// classify attributes a failure. The concurrent-pump race in
// scheduler.(*Scheduler).pump launches one task twice; the verification
// operations it breaks, and the errors it gives steering a task caught
// in it ("is not submitted (state staging)", "condor: no such job"), are
// labelled "race". Anything else is "other".
func classify(op string, err error) string {
	msg := err.Error()
	switch {
	case op == "single-launch" || op == "recovery":
		return "race"
	case op == "steer" && (strings.Contains(msg, "is not submitted (state staging)") || strings.Contains(msg, "no such job")):
		return "race"
	}
	return "other"
}

// round is what one round reports.
type round struct {
	setup time.Duration // deployment, inputs, warm-up
	wall  time.Duration // measured phase
	cpu   time.Duration // process user+system CPU over the measured phase
	ops   int           // operations completed in the measured phase
	lat   []float64     // per-operation latency, ms; summarized and dropped after the round
	// Nearest-rank latency percentiles of the round, ms.
	p50, p90, p99 float64
	samples       int
	alloc         memDelta // allocation over the measured phase
	// perAlloc divides alloc: operations for the serving workloads,
	// simulator events for the sim workloads.
	perAlloc float64
	tally    tally
	// layer holds per-layer figures every round measures cheaply;
	// traced holds those only a traced round measures.
	layer  map[string]float64
	traced map[string]float64
	// live keeps the round's deployment reachable for the heap reading.
	live   any
	heapMB float64
}

// phase measures one stretch of the measured phase. Sim workloads leave
// their checks out of the measurement by measuring several stretches.
type phase struct {
	t0    time.Time
	cpu0  time.Duration
	alloc memDelta
}

// startPhase reads the CPU and allocation counters before the clock, so
// the stretch's wall time leaves out the benchmark's own reads.
func startPhase() phase {
	p := phase{cpu0: cpuTime(), alloc: readAlloc()}
	p.t0 = time.Now()
	return p
}

// stop adds the stretch's wall time, CPU time and allocation to r. The
// clock is read first, for the same reason.
func (p phase) stop(r *round) time.Duration {
	d := time.Since(p.t0)
	r.wall += d
	r.cpu += cpuTime() - p.cpu0
	a := readAlloc()
	r.alloc.mallocs += a.mallocs - p.alloc.mallocs
	r.alloc.bytes += a.bytes - p.alloc.bytes
	r.alloc.gcs += a.gcs - p.alloc.gcs
	return d
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta counts heap allocation: objects, bytes and GC cycles.
type memDelta struct {
	mallocs, bytes, gcs uint64
}

var allocMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// readAlloc reads the runtime's cumulative allocation counters without
// stopping the world.
func readAlloc() memDelta {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, n := range allocMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return memDelta{
		mallocs: s[0].Value.Uint64() + s[1].Value.Uint64(),
		bytes:   s[2].Value.Uint64(),
		gcs:     s[3].Value.Uint64(),
	}
}

// percentile reads the q-quantile of sorted values by the nearest-rank
// method: the smallest value with at least q of the values at or below
// it.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in the order of BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// report is the human-readable summary printed before the JSON line.
type report struct {
	rounds, tracedRounds int
	samples              int
	p99                  float64
	tally                tally
	violations           []string
}

// run drives rounds until the budget is spent, then aggregates. In a
// traced run odd rounds are traced, even rounds are not; at least one
// of each runs.
func run(w workload, e *env) (result, *report, error) {
	start := time.Now()
	var (
		all, plain, traced []*round
		rep                = &report{}
	)
	for i := 0; ; i++ {
		isTraced := e.traced && i%2 == 1
		r, err := w.round(e, isTraced)
		if err != nil {
			return result{}, rep, fmt.Errorf("round %d: %w", i, err)
		}
		sort.Float64s(r.lat)
		r.p50, r.p90, r.p99 = percentile(r.lat, 0.50), percentile(r.lat, 0.90), percentile(r.lat, 0.99)
		r.samples, r.lat = len(r.lat), nil
		// The heap in use with the round's deployment still live, after
		// forced collections. The first moves sync.Pool caches (such as
		// encoding/json's buffers) to their victim lists and the second
		// frees them, so whether a pooled buffer survived does not move
		// the figure.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
		runtime.KeepAlive(r.live)
		r.live = nil
		fmt.Fprintf(os.Stderr, "round %d traced=%v setup %.4fs wall %.4fs ops %d ops/s %.1f cpu/op %.2fus p50 %.4fms p90 %.4fms heap %.3fMB\n",
			i, isTraced, r.setup.Seconds(), r.wall.Seconds(), r.ops, opsPerS(r), cpuPerOp(r), r.p50, r.p90, r.heapMB)
		all = append(all, r)
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		rep.tally.add(&r.tally)
		if time.Since(start) >= e.budget && (!e.traced || len(traced) > 0) {
			break
		}
	}
	rep.rounds, rep.tracedRounds = len(all), len(traced)

	res := result{
		Correct:   e.checks.ok(),
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   map[string]metric{},
	}
	rep.violations = e.checks.violations
	rep.p99 = roundMedian(plain, func(r *round) float64 { return r.p99 })
	rep.samples = int(roundMedian(plain, func(r *round) float64 { return float64(r.samples) }))
	if !e.traced {
		// Every figure is the median over rounds of the round's own
		// figure, so a burst of host noise in one round does not move it.
		v := map[string]float64{
			"ops_per_s":     roundMedian(plain, opsPerS),
			"p50_ms":        roundMedian(plain, func(r *round) float64 { return r.p50 }),
			"p90_ms":        roundMedian(plain, func(r *round) float64 { return r.p90 }),
			"cpu_us_per_op": roundMedian(plain, cpuPerOp),
			"live_heap_mb":  roundMedian(plain, func(r *round) float64 { return r.heapMB }),
			"setup_s":       roundMedian(all, func(r *round) float64 { return r.setup.Seconds() }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{v[m.name], m.unit}
		}
		return res, rep, nil
	}
	for _, l := range perLayer {
		var v float64
		switch {
		case l.name == "trace.overhead_pct":
			if t := roundMedian(traced, opsPerS); t > 0 {
				v = (roundMedian(plain, opsPerS)/t - 1) * 100
			}
		case l.name == "go.allocs_per_op":
			v = roundMedian(plain, func(r *round) float64 { return perUnit(float64(r.alloc.mallocs), r.perAlloc) })
		case l.name == "go.alloc_kb_per_op":
			v = roundMedian(plain, func(r *round) float64 { return perUnit(float64(r.alloc.bytes)/1024, r.perAlloc) })
		case l.name == "go.gc_cycles":
			v = roundMedian(plain, func(r *round) float64 { return float64(r.alloc.gcs) })
		case strings.HasPrefix(l.name, "cpu."):
			// Profile self time is summed over the traced rounds' measured
			// phases and divided by their number: seconds per round.
			for _, r := range traced {
				v += r.traced[l.name]
			}
			v /= float64(len(traced))
		default:
			v = layerMedian(plain, traced, l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	return res, rep, nil
}

func opsPerS(r *round) float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.ops) / r.wall.Seconds()
}

func cpuPerOp(r *round) float64 { return perUnit(usOf(r.cpu), float64(r.ops)) }

func perUnit(v, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return v / n
}

func roundMedian(rs []*round, f func(*round) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// layerMedian reads a per-layer figure: from the untraced rounds when
// every round measures it, otherwise from the traced rounds. A layer
// the workload does not reach reads 0.
func layerMedian(plain, traced []*round, name string) float64 {
	var xs []float64
	for _, r := range plain {
		if v, ok := r.layer[name]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		for _, r := range traced {
			if v, ok := r.traced[name]; ok {
				xs = append(xs, v)
			}
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func (rep *report) print(out io.Writer, name string, res result) {
	fmt.Fprintf(out, "workload %s: %d rounds (%d traced), %d attempted, %d failed, correct=%v\n",
		name, rep.rounds, rep.tracedRounds, res.Attempted, res.Failed, res.Correct)
	classes := make([]string, 0, len(rep.tally.byClass))
	for c := range rep.tally.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(out, "  failed %-24s %6d  e.g. %s\n", c, rep.tally.byClass[c], rep.tally.examples[c])
	}
	for i, v := range rep.violations {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more violations\n", len(rep.violations)-i)
			break
		}
		fmt.Fprintf(out, "  VIOLATION %s\n", v)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if rep.samples > 0 {
		fmt.Fprintf(out, "  %-28s %14.4f ms (median over rounds; %d latency samples per round)\n", "p99 (not gated)", rep.p99, rep.samples)
	}
}
