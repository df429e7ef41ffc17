package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the printed
// metrics in step: every declared metric is printed with its declared
// unit, and nothing undeclared is printed.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		found := false
		for _, x := range workloads {
			found = found || x.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	// A minimal result yields every end-to-end metric.
	l := newOpLog(3)
	l.done(opRead, 0, 1000)
	r := &result{setup: []float64{1}, timed: []*opLog{l}}
	lat, _ := r.latencies()
	got := r.endToEnd(lat)
	if len(got) != len(bench.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json declares %d", len(got), len(bench.EndToEnd))
	}
	for _, m := range bench.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("end-to-end %s: printed %+v (present %v), declared unit %s", m.Name, g, ok, m.Unit)
		}
	}
	if len(perLayer) != len(bench.PerLayer) {
		t.Fatalf("benchmark prints %d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(bench.PerLayer))
	}
	for i, m := range bench.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: printed %+v, declared %s %s", i, perLayer[i], m.Name, m.Unit)
		}
	}
}
