package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1},   // overlaps a
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1},  // runs past the parent
		{ID: 5, Name: "d", Start: 15, End: 20, Parent: 2},   // nested in a
		{ID: 6, Name: "e", Start: 200, End: 300, Parent: 1}, // outside the parent
		{ID: 7, Name: "f", Start: 32, End: 38, Parent: 3},   // nested in b, inside a
		{ID: 8, Name: "g", Start: 34, End: 36, Parent: 3},   // overlaps its sibling f
	}
	want := map[int]int64{
		1: 100 - (60 - 10) - (100 - 90),
		2: 30 - 5,
		3: 30 - 6,
		4: 30,
		5: 5,
		6: 100,
		7: 6,
		8: 2,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	lt := aggregate(spans)
	if ms := lt.meanMs("job"); ms != 40/1e6 {
		t.Errorf("meanMs(job) = %g, want %g", ms, 40/1e6)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0, 1)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("workloads %v, program has %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("workloads %v, program has %v", names, have)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
