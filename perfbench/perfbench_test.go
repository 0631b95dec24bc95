package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/synth"
	"repro/internal/topology"
)

// A wrong byte in a streamed report must count as exactly one failed
// request of the op; the other requests stay checked and pass.
func TestCorruptedReportIsCounted(t *testing.T) {
	ctx := context.Background()
	wk := reportWorkload{name: "grid_3x2", base: topology.Grid(3, 2), lift: true, explains: 1}
	net, names, err := relabel(wk.base, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := buildProblem(ctx, net, names, wk.name, scaleSynthOptions())
	if err != nil {
		t.Fatal(err)
	}
	refs, err := chooseReportEdit(ctx, wk, p)
	if err != nil {
		t.Fatal(err)
	}
	if op := runReportOp(ctx, wk, p, refs, nil, false); op.failed != 0 {
		t.Fatalf("clean op: %d failed requests, want 0", op.failed)
	}
	if op := runReportOp(ctx, wk, p, refs, nil, true); op.failed != 1 {
		t.Fatalf("corrupted op: %d failed requests, want 1", op.failed)
	}
}

// A served response that differs from its reference must count as a
// failed request.
func TestCorruptedResponseIsCounted(t *testing.T) {
	ctx := context.Background()
	base := topology.Grid(3, 2)
	net, names, err := relabel(base, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := buildProblem(ctx, net, names, "grid_3x2", synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := wireClient(0, p)
	if c.ref, err = coldReport(ctx, p, p.dep); err != nil {
		t.Fatal(err)
	}
	e := editCandidates(p.dep, 1, 64)["med-change"][0]
	ref, err := coldReport(ctx, p, e.dep)
	if err != nil {
		t.Fatal(err)
	}
	c.edits = []servedEdit{c.served(e, ref)}

	ls, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ls.stop(); err != nil {
			t.Error(err)
		}
	}()
	for _, corrupt := range []bool{false, true} {
		recs := drive(ctx, ls.url, []*serveClient{c}, time.Hour, 1, nil, corrupt)
		failed := 0
		for _, r := range recs {
			if !r.ok {
				failed++
			}
		}
		want := 0
		if corrupt {
			want = len(recs)
		}
		if len(recs) != len(c.edits[0].cycle) || failed != want {
			t.Errorf("corrupt=%t: %d of %d requests failed, want %d of %d", corrupt, failed, len(recs), want, len(c.edits[0].cycle))
		}
	}
}

// The metric lists the program reports must be the ones BENCHMARK.json
// declares, with the same units, in the same order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}}
	got := tr.selfTimes()
	want := map[string]float64{"root": 50e-6, "a": 25e-6, "b": 30e-6, "c": 5e-6}
	for n, w := range want {
		if d := got[n] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self(%s) = %g ms, want %g ms", n, got[n], w)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
	if m := median(xs[:4]); m != 3 {
		t.Errorf("median of 5,1,4,2 = %g, want 3", m)
	}
	if p := percentile(xs, 90); p != 5 {
		t.Errorf("p90 = %g, want 5", p)
	}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("p50 = %g, want 3", p)
	}
}
