package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// perLayer lists the per-layer metrics a traced run reports, in the
// order of BENCHMARK.json. README.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []struct{ name, unit string }{
	{"clarens.serve_us", "us"},
	{"clarens.wire_us", "us"},
	{"clarens.client_us", "us"},
	{"xmlrpc.decode_request_us", "us"},
	{"xmlrpc.encode_response_us", "us"},
	{"xmlrpc.decode_response_us", "us"},
	{"xmlrpc.allocs_per_call", "count"},
	{"jobmon.local_us", "us"},
	{"jobmon.job_us", "us"},
	{"jobmon.position_us", "us"},
	{"steering.taskstatus_us", "us"},
	{"op.submit_ms", "ms"},
	{"op.plan_ms", "ms"},
	{"op.taskstatus_ms", "ms"},
	{"op.steer_ms", "ms"},
	{"op.state_set_ms", "ms"},
	{"op.state_get_ms", "ms"},
	{"op.weather_ms", "ms"},
	{"op.sites_ms", "ms"},
	{"core.handler_us", "us"},
	{"core.journal_us", "us"},
	{"durable.flushes", "count"},
	{"durable.records_per_flush", "count"},
	{"durable.fsync_ms", "ms"},
	{"durable.bytes_per_record", "B"},
	{"scheduler.place_ms", "ms"},
	{"scheduler.wakes", "count"},
	{"scheduler.jobs_launched", "count"},
	{"scheduler.dup_launches", "count"},
	{"simgrid.events", "count"},
	{"simgrid.us_per_event", "us"},
	{"simgrid.chunk_ms", "ms"},
	{"simgrid.sim_s_per_wall_s", "s/s"},
	{"condor.passes", "count"},
	{"condor.matches", "count"},
	{"condor.pass_ms", "ms"},
	{"cpu.steering_s", "s"},
	{"cpu.jobmon_s", "s"},
	{"cpu.condor_s", "s"},
	{"cpu.classad_s", "s"},
	{"cpu.fairshare_s", "s"},
	{"cpu.simgrid_s", "s"},
	{"cpu.scheduler_s", "s"},
	{"cpu.estimator_s", "s"},
	{"cpu.xmlrpc_s", "s"},
	{"cpu.clarens_s", "s"},
	{"cpu.durable_s", "s"},
	{"cpu.core_s", "s"},
	{"cpu.runtime_s", "s"},
	{"cpu.other_s", "s"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the run started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog is the untraced run: every method is a no-op.
type spanLog struct {
	epoch time.Time
	ids   atomic.Uint64
	ops   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// openSpan is a started span; end records it.
type openSpan struct {
	log *spanLog
	s   span
}

func (l *spanLog) newOp() uint64 {
	if l == nil {
		return 0
	}
	return l.ops.Add(1)
}

func (l *spanLog) start(name string, parent, op uint64) openSpan {
	if l == nil {
		return openSpan{}
	}
	return openSpan{log: l, s: span{
		ID: l.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(l.epoch)),
	}}
}

func (o openSpan) id() uint64 { return o.s.ID }

func (o openSpan) end() {
	if o.log == nil {
		return
	}
	o.s.End = int64(time.Since(o.log.epoch))
	o.log.add(o.s)
}

// record adds a span measured elsewhere (a server-side stage).
func (l *spanLog) record(name string, parent, op uint64, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	s := int64(start.Sub(l.epoch))
	l.add(span{ID: l.ids.Add(1), Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func spanPath(workDir, workload string) string {
	return filepath.Join(workDir, "spans-"+workload+".jsonl")
}

// write stores the spans as JSON lines, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kindTimes collects latencies by operation kind for per-kind medians.
type kindTimes struct {
	mu sync.Mutex
	by map[string][]float64
}

func (k *kindTimes) add(kind string, v float64) {
	k.mu.Lock()
	if k.by == nil {
		k.by = map[string][]float64{}
	}
	k.by[kind] = append(k.by[kind], v)
	k.mu.Unlock()
}

func (k *kindTimes) median(kind string) (float64, bool) {
	xs := k.by[kind]
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}
