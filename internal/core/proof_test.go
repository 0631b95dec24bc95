package core

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/scenarios"
)

// TestReportWithProofsMatchesGolden regenerates every scenario's report
// with proof verification on and pins three properties at once: the
// report is byte-identical to the committed golden (logging and
// checking are observation only), every Unsat verdict along the way
// carried a proof the independent checker accepted (a rejected proof
// aborts the report with an error), and the checker actually ran.
func TestReportWithProofsMatchesGolden(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dep := synthScenario(t, sc)
			opts := DefaultOptions()
			opts.VerifyProofs = true
			e, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Report()
			if err != nil {
				t.Fatalf("report with proof verification: %v", err)
			}
			path := filepath.Join("testdata", "report_"+sc.Name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("verified report for %s differs from golden %s.\ngot:\n%s", sc.Name, path, got)
			}
			st := e.Stats()
			if st.ProofChecks == 0 {
				t.Fatalf("no proofs were checked while generating the report")
			}
			if st.ProofOps == 0 || st.ProofLemmas == 0 {
				t.Fatalf("proof stats empty: %+v", st)
			}
		})
	}
}

// TestExplanationVerifiedFlag pins the Verified stamp: on with
// verification, off without.
func TestExplanationVerifiedFlag(t *testing.T) {
	sc := scenarios.All()[0]
	dep := synthScenario(t, sc)

	plain := newExplainer(t, sc, dep, nil)
	var routers []string
	for name := range dep {
		routers = append(routers, name)
	}
	sort.Strings(routers)
	router := routers[0]
	ex, err := plain.ExplainAll(router)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verified {
		t.Fatalf("explanation stamped Verified without proof verification")
	}

	opts := DefaultOptions()
	opts.VerifyProofs = true
	verified, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	vex, err := verified.ExplainAll(router)
	if err != nil {
		t.Fatal(err)
	}
	if !vex.Verified {
		t.Fatalf("explanation not stamped Verified under VerifyProofs")
	}
	if vex.Subspec == nil || ex.Subspec == nil {
		t.Fatalf("expected lifted subspecs in both runs")
	}
	if got, want := subspecStrings(vex.Subspec), subspecStrings(ex.Subspec); len(got) != len(want) {
		t.Fatalf("verification changed the subspec: %v vs %v", got, want)
	}
}

// TestReportWithProofsIdenticalAcrossWorkerCounts combines the two
// contracts above: with proof verification on, the report stays
// byte-identical to the committed golden at every lift worker count.
// Parallel lift hands warm solver clones to workers, and a clone forks
// the proof trace — this pins that the forked traces all check and
// that neither scheduling nor verification perturbs the output.
func TestReportWithProofsIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dep := synthScenario(t, sc)
			want, err := os.ReadFile(filepath.Join("testdata", "report_"+sc.Name+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				opts := DefaultOptions()
				opts.VerifyProofs = true
				opts.LiftWorkers = workers
				e, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Report()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got != string(want) {
					t.Errorf("workers=%d: verified report differs from golden", workers)
				}
				if e.Stats().ProofChecks == 0 {
					t.Fatalf("workers=%d: no proofs were checked", workers)
				}
			}
		})
	}
}

// TestReportIdenticalAcrossSatWorkerMatrix pins the determinism
// contract of the SAT-side settings: the whole-network report is
// byte-identical to the committed golden for every lift worker count
// crossed with proof logging off and on and with the per-solve
// conflict cap unset and set above anything a solve spends. The
// matrix once crossed SAT portfolio widths as well; with one solver
// left, what it guards is that neither proof logging nor an armed
// (non-binding) conflict budget changes a verdict, and that each lift
// worker's cloned solvers inherit both settings. Any byte drift here
// means solver state leaked into a report.
func TestReportIdenticalAcrossSatWorkerMatrix(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			dep := synthScenario(t, sc)
			want, err := os.ReadFile(filepath.Join("testdata", "report_"+sc.Name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (run TestReportMatchesGolden -update): %v", err)
			}
			for _, proofs := range []bool{false, true} {
				for _, maxConflicts := range []int64{0, 1 << 40} {
					for _, liftWorkers := range []int{1, 2, 8} {
						opts := DefaultOptions()
						opts.VerifyProofs = proofs
						opts.Budget.MaxConflicts = maxConflicts
						opts.LiftWorkers = liftWorkers
						e, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := e.Report()
						if err != nil {
							t.Fatalf("proofs=%v maxconflicts=%d liftworkers=%d: %v", proofs, maxConflicts, liftWorkers, err)
						}
						if got != string(want) {
							t.Errorf("proofs=%v maxconflicts=%d liftworkers=%d: report differs from golden", proofs, maxConflicts, liftWorkers)
						}
						if checks := e.Stats().ProofChecks; (checks > 0) != proofs {
							t.Errorf("proofs=%v maxconflicts=%d liftworkers=%d: %d proof checks", proofs, maxConflicts, liftWorkers, checks)
						}
					}
				}
			}
		})
	}
}
