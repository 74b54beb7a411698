package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the contract the printed metrics are held to.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// check reduces the report's metrics to the list the run is to print —
// the end-to-end metrics, or the per-layer ones when tracing — and fails
// if one is missing or has another unit than BENCHMARK.json says. A
// per-layer metric of a layer the workload never reaches reads 0.
// Whatever else the run measured moves to the notes.
func (s *spec) check(rep *report, trace bool) error {
	list := s.EndToEnd
	if trace {
		list = s.PerLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range list {
		got, ok := rep.metrics[m.Name]
		switch {
		case !ok && trace:
			got = metricValue{0, m.Unit}
		case !ok:
			return fmt.Errorf("%s: metric %s was not measured", rep.workload, m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rep.workload, m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = got
		delete(rep.metrics, m.Name)
	}
	var extra []string
	for name := range rep.metrics {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		rep.notef("%s: %g %s", name, rep.metrics[name].Value, rep.metrics[name].Unit)
	}
	rep.metrics = metrics
	return nil
}

// print writes the report for a reader: one metric per line by name,
// with its unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	var names []string
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// printSpread prints, per workload and end-to-end metric, the median and
// quartiles over the repetitions and the interquartile range as a share
// of the median, against the metric's bound.
func printSpread(w io.Writer, s *spec, all [][]*report) {
	fmt.Fprintf(w, "\n%-20s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for i := range all[0] {
		for _, m := range s.EndToEnd {
			var xs []float64
			for _, reps := range all {
				if v, ok := reps[i].metrics[m.Name]; ok {
					xs = append(xs, v.Value)
				}
			}
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			mark := ""
			switch sp := spread(xs); {
			case sp > m.Bound && m.Name != "setup_s":
				mark = "  EXCEEDS BOUND"
			case sp > m.Bound/3:
				mark = "  above a third of the bound"
			}
			fmt.Fprintf(w, "%-20s %-16s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				all[0][i].workload, m.Name, q1, q2, q3, 100*spread(xs), 100*m.Bound, mark)
		}
	}
}
