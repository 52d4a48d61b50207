package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json at the
// repository root names exactly the metrics, with the units, that the
// benchmark prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}

	r := &round{setup: time.Second, cpu: time.Second, tput: []float64{1}, quality: 1}
	e2e := &result{Metrics: map[string]metric{}}
	endToEnd(e2e, []*round{r})
	layers := &result{Metrics: map[string]metric{}}
	perLayer(layers, []*round{r}, []*round{r})
	for _, c := range []struct {
		what  string
		spec  []entry
		print map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e.Metrics}, {"per_layer", spec.PerLayer, layers.Metrics}} {
		if len(c.spec) != len(c.print) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.what, len(c.spec), len(c.print))
		}
		for _, e := range c.spec {
			if m, ok := c.print[e.Name]; !ok || m.Unit != e.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q; printed: %+v (present %v)", c.what, e.Name, e.Unit, m, ok)
			}
		}
	}
}
