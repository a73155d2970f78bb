// Command perfbench measures the GAE stack end to end and layer by
// layer. One invocation runs one workload for a fixed wall-clock budget
// and prints, as the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 rounds alternate between untraced and traced, and the
// metrics are the per-layer ones plus the tracing overhead between the
// two kinds of round. Each round's own figures go to standard error.
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload monitor-wire --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workDir holds the durable stores and span files, inside the checkout.
const workDir = ".bench_build/perfbench"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "wall-clock budget; the run ends after the round that crosses it")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env := &env{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workDir: workDir,
		checks:  &checks{},
	}
	env.spans.epoch = time.Now()
	res, rep, err := run(w, env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout, w.name, res)
	if env.traced {
		if err := env.spans.write(spanPath(workDir, w.name)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
