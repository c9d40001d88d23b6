package main

import (
	"encoding/json"
	"os"
	"testing"

	"kloc/internal/kernel"
	"kloc/internal/policy"
)

// The decorator must offer OOM victim nomination exactly when the
// policy it wraps does, or the kernel's OOM path would change course.
func TestWrapPolicyForwardsOOMChooser(t *testing.T) {
	seen := map[bool]bool{}
	for _, name := range policy.TwoTierNames() {
		inner, err := policy.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, _ := wrapPolicy(inner)
		_, want := inner.(kernel.OOMVictimChooser)
		_, got := wrapped.(kernel.OOMVictimChooser)
		if got != want {
			t.Errorf("%s: wrapped OOMVictimChooser = %t, inner = %t", name, got, want)
		}
		seen[want] = true
	}
	if !seen[true] || !seen[false] {
		t.Errorf("catalog covers only OOMVictimChooser=%v", seen)
	}
}

// BENCHMARK.json must declare exactly the per-layer metrics a traced
// run reports, in the same order and units.
func TestBenchmarkJSONListsPerLayerMetrics(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	want := perLayerNames()
	if len(doc.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(want))
	}
	for i, m := range doc.PerLayer {
		if m.Name != want[i].name || m.Unit != want[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, want[i].name, want[i].unit)
		}
	}
}
