package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/condor"
	"repro/internal/durable"
)

// claim is one job's hold on a node: [start, end).
type claim struct {
	job        int
	start, end time.Time
}

// checkClaims verifies that on every node the claim intervals pairwise
// precede or meet in Allen's interval algebra (one ends at or before
// the other starts) and never overlap. After sorting by start it is
// enough to compare neighbours: if every interval ends by the next
// one's start, no later interval can reach back into an earlier one.
func checkClaims(byNode map[string][]claim) error {
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		cs := byNode[n]
		sort.Slice(cs, func(i, j int) bool {
			if !cs[i].start.Equal(cs[j].start) {
				return cs[i].start.Before(cs[j].start)
			}
			return cs[i].end.Before(cs[j].end)
		})
		for i, c := range cs {
			if c.end.Before(c.start) {
				return fmt.Errorf("node %s: job %d ends %v before it starts %v", n, c.job, c.end, c.start)
			}
			if i > 0 && cs[i-1].end.After(c.start) {
				return fmt.Errorf("node %s: job %d [%v, %v) overlaps job %d starting %v",
					n, cs[i-1].job, cs[i-1].start, cs[i-1].end, c.job, c.start)
			}
		}
	}
	return nil
}

// claimsOf collects the node claims of jobs that have started; a job
// still running holds its node until now.
func claimsOf(jobs []condor.JobInfo, now time.Time, byNode map[string][]claim) {
	for _, j := range jobs {
		if j.StartTime.IsZero() || j.Node == "" {
			continue
		}
		end := j.CompletionTime
		if end.IsZero() {
			end = now
		}
		byNode[j.Node] = append(byNode[j.Node], claim{job: j.ID, start: j.StartTime, end: end})
	}
}

// diffStates compares two captured deployment states in their canonical
// encoding. It returns "" when they are identical and otherwise the
// first line that differs, so a report names the diverging field.
func diffStates(live, recovered durable.State) (string, error) {
	a, err := durable.EncodeState(&live)
	if err != nil {
		return "", err
	}
	b, err := durable.EncodeState(&recovered)
	if err != nil {
		return "", err
	}
	if bytes.Equal(a, b) {
		return "", nil
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y []byte
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if !bytes.Equal(x, y) {
			return fmt.Sprintf("line %d: live %q, recovered %q", i+1, bytes.TrimSpace(x), bytes.TrimSpace(y)), nil
		}
	}
	return "encodings differ", nil
}
