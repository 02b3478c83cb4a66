package experiments

import "testing"

// The scale workload is the identity probe for the engine: repeated runs
// must produce byte-identical simulation outputs (event count, virtual
// time, traffic bytes, data checksums, kernel results), and digest_test.go
// pins those outputs to frozen values.

func mustScale(t *testing.T, opts ScaleOptions) ScaleStats {
	t.Helper()
	st, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestScaleRunToRunDeterminism(t *testing.T) {
	opts := ScaleOptions{Nodes: 24, OpsPerClient: 24, Seed: 3}
	a := mustScale(t, opts)
	b := mustScale(t, opts)
	if !a.SameSimulation(b) {
		t.Fatalf("two identical runs diverged:\n a %+v\n b %+v", a, b)
	}
}

func TestScaleSeedChangesOutputs(t *testing.T) {
	a := mustScale(t, ScaleOptions{Nodes: 24, OpsPerClient: 24, Seed: 1})
	b := mustScale(t, ScaleOptions{Nodes: 24, OpsPerClient: 24, Seed: 2})
	if a.Checksum == b.Checksum {
		t.Fatal("different seeds produced the same checksum — the workload is not seed-driven")
	}
}

func TestScaleRejectsOddNodeCounts(t *testing.T) {
	if _, err := RunScale(ScaleOptions{Nodes: 25}); err == nil {
		t.Fatal("odd node count accepted")
	}
	if _, err := RunScale(ScaleOptions{Nodes: 0}); err == nil {
		t.Fatal("zero node count accepted")
	}
}

// TestScale640Determinism runs the 640-node point twice: the two runs
// must be byte-identical (digest_test.go pins their digest).
func TestScale640Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("640-node run skipped with -short")
	}
	opts := ScaleOptions{Nodes: 640, OpsPerClient: 16, Seed: 11}
	a := mustScale(t, opts)
	b := mustScale(t, opts)
	if !a.SameSimulation(b) {
		t.Fatalf("two 640-node runs diverged:\n a %+v\n b %+v", a, b)
	}
}
