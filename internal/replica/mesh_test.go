package replica

import (
	"math"
	"strings"
	"testing"

	"effnetscale/internal/mesh"
)

// meshEngineConfig is miniEngineConfig laid out as a d×m mesh.
func meshEngineConfig(d, m, perBatch, bnGroup int) Config {
	cfg := miniEngineConfig(d*m, perBatch, bnGroup)
	cfg.Mesh = mesh.Shape{Data: d, Model: m}
	return cfg
}

// TestMeshM1BitForBit pins the hybrid engine's degenerate case: an explicit
// D×1 mesh is the pure data-parallel engine, bit for bit — same losses, same
// weights. The mesh must cost nothing when the model axis is trivial.
func TestMeshM1BitForBit(t *testing.T) {
	plain, err := New(miniEngineConfig(4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	meshed, err := New(meshEngineConfig(4, 1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer meshed.Close()
	for i := 0; i < 3; i++ {
		rp := mustStep(t, plain)
		rm := mustStep(t, meshed)
		if rp.Loss != rm.Loss {
			t.Fatalf("step %d: plain loss %v != 4x1 mesh loss %v", i, rp.Loss, rm.Loss)
		}
	}
	pp := plain.Replica(0).Model.Params()
	mp := meshed.Replica(0).Model.Params()
	for i := range pp {
		a, b := pp[i].Data().Data(), mp[i].Data().Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("param %d elem %d: plain %v != meshed %v", i, j, a[j], b[j])
			}
		}
	}
}

// TestMeshHybridEquivalence trains the same global batch as a 2×2 hybrid
// mesh (2 data replicas × 2 model shards, per-replica batch 8) and as a
// single replica with the full batch of 16, and demands the same trajectory
// up to floating-point reduction order — the hybrid counterpart of
// TestDataParallelEquivalence. The BN group spans the data axis in both, so
// batch statistics cover the full global batch.
func TestMeshHybridEquivalence(t *testing.T) {
	hybrid, err := New(meshEngineConfig(2, 2, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()
	single, err := New(miniEngineConfig(1, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if gb := hybrid.GlobalBatch(); gb != 16 {
		t.Fatalf("2x2 mesh global batch = %d, want 16 (model axis must not multiply data)", gb)
	}
	for i := 0; i < 2; i++ {
		rh := mustStep(t, hybrid)
		rs := mustStep(t, single)
		if math.Abs(rh.Loss-rs.Loss) > 1e-3*(1+math.Abs(rs.Loss)) {
			t.Fatalf("step %d: hybrid loss %v vs single loss %v", i, rh.Loss, rs.Loss)
		}
	}
	hp := hybrid.Replica(0).Model.Params()
	sp := single.Replica(0).Model.Params()
	var maxDiff float64
	for i := range hp {
		a, b := hp[i].Data().Data(), sp[i].Data().Data()
		for j := range a {
			d := math.Abs(float64(a[j] - b[j]))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 5e-4 {
		t.Fatalf("weights diverged between hybrid and single: max diff %v", maxDiff)
	}
}

// TestMeshWeightsInSync checks the replication invariant under sharded
// compute: after the gradient exchange every rank of the 2×2 mesh — across
// both axes — must hold bitwise identical weights.
func TestMeshWeightsInSync(t *testing.T) {
	e, err := New(meshEngineConfig(2, 2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Step()
		if d := e.WeightsInSync(); d != "" {
			t.Fatalf("after step %d: %s", i+1, d)
		}
	}
}

// TestMeshValidation exercises the engine's mesh checks.
func TestMeshValidation(t *testing.T) {
	cfg := miniEngineConfig(4, 2, 1)
	cfg.Mesh = mesh.Shape{Data: 2, Model: 4}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "mesh") {
		t.Fatalf("mesh/world mismatch accepted: %v", err)
	}
	cfg = meshEngineConfig(2, 2, 2, 2)
	cfg.BNGroupSize = 4 // exceeds the data axis
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "data axis") {
		t.Fatalf("BN group larger than data axis accepted: %v", err)
	}
}

// TestRestoreRejectsMeshShapeChange captures a 2×2 hybrid run and tries to
// resume it as 4×1 pure data parallelism over the same four ranks. The
// restore must fail with an error naming both shapes — re-gridding changes
// the data sharding and reduction order, so the trajectory is not portable.
func TestRestoreRejectsMeshShapeChange(t *testing.T) {
	hybrid, err := New(meshEngineConfig(2, 2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()
	hybrid.Step()
	snap, err := hybrid.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := New(meshEngineConfig(4, 1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	err = flat.RestoreState(snap)
	if err == nil {
		t.Fatal("restoring a 2x2 snapshot into a 4x1 engine succeeded")
	}
	if !strings.Contains(err.Error(), "2x2") || !strings.Contains(err.Error(), "4x1") {
		t.Fatalf("mesh-shape error does not name both shapes: %v", err)
	}

	// The round trip into an identically shaped engine must still work.
	same, err := New(meshEngineConfig(2, 2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if err := same.RestoreState(snap); err != nil {
		t.Fatalf("restore into identical 2x2 engine: %v", err)
	}
}
