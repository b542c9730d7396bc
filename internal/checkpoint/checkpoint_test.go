package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

func newPico(seed int64) *efficientnet.Model {
	cfg, _ := efficientnet.ConfigByName("pico", 10)
	return efficientnet.New(rand.New(rand.NewSource(seed)), cfg)
}

// --- Snapshot component/codec error paths -------------------------------------

func modelSnapshot(t testing.TB, m *efficientnet.Model) *Snapshot {
	t.Helper()
	snap := NewSnapshot()
	if err := snap.Capture(ModelState(m)); err != nil {
		t.Fatal(err)
	}
	return snap
}

// flatWeights copies every value ModelState restores (parameters, then BN
// running statistics) into one slice, for before/after comparison.
func flatWeights(m *efficientnet.Model) []float32 {
	var out []float32
	for _, p := range m.Params() {
		out = append(out, p.Data().Data()...)
	}
	for _, bn := range m.BatchNorms() {
		out = append(out, bn.RunningMean.Data()...)
		out = append(out, bn.RunningVar.Data()...)
	}
	return out
}

// sameBits reports bit-for-bit equality (NaN-safe, unlike ==).
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestModelStateRoundTrip(t *testing.T) {
	src := newPico(1)
	src.BatchNorms()[1].RunningVar.Data()[0] = 7.5
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, modelSnapshot(t, src)); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dst := newPico(42)
	if err := snap.Restore(ModelState(dst)); err != nil {
		t.Fatal(err)
	}
	if !sameBits(flatWeights(src), flatWeights(dst)) {
		t.Fatal("weights differ after snapshot round trip")
	}
	if dst.BatchNorms()[1].RunningVar.Data()[0] != 7.5 {
		t.Fatal("BN running stats not restored through codec")
	}
	// Same outputs on the same input.
	x := autograd.Constant(tensor.Randn(rand.New(rand.NewSource(5)), 1, 1, 3, 32, 32))
	ys, yd := src.Forward(nn.EvalCtx(), x), dst.Forward(nn.EvalCtx(), x)
	if !sameBits(ys.T.Data(), yd.T.Data()) {
		t.Fatal("restored model produces different outputs")
	}
}

func TestModelStateRejectsWrongFamily(t *testing.T) {
	snap := modelSnapshot(t, newPico(1))
	cfg, _ := efficientnet.ConfigByName("nano", 10)
	nano := efficientnet.New(rand.New(rand.NewSource(2)), cfg)
	err := snap.Restore(ModelState(nano))
	if err == nil || !strings.Contains(err.Error(), "saved from model") {
		t.Fatalf("wrong-family restore = %v, want saved-from-model error", err)
	}
}

func TestModelStateRejectsMissingAndExtraState(t *testing.T) {
	m := newPico(1)
	snap := modelSnapshot(t, m)
	comp := snap.Components["model"]

	// Every rejection must leave the target model bit-identical: a restore
	// that copies while it validates hands back a half-overwritten model.
	dst := newPico(2)
	before := flatWeights(dst)
	reject := func(what, wantErr string) {
		t.Helper()
		err := snap.Restore(ModelState(dst))
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s restore = %v, want error containing %q", what, err, wantErr)
		}
		if cerr := CheckModelState(dst, comp); cerr == nil || !strings.Contains(cerr.Error(), wantErr) {
			t.Fatalf("%s check = %v, want error containing %q", what, cerr, wantErr)
		}
		if !sameBits(before, flatWeights(dst)) {
			t.Fatalf("rejected %s restore wrote to the model", what)
		}
	}

	// Missing state: the last BN blob, so everything before it validates.
	name := fmt.Sprintf("bn/%d/var", len(m.BatchNorms())-1)
	saved := comp[name]
	delete(comp, name)
	reject("missing-state", "missing state")
	comp[name] = saved

	// Extra state the model does not have.
	comp.PutF32("param/ghost.w", []int{2}, []float32{1, 2})
	reject("extra-state", "ghost.w")
	delete(comp, "param/ghost.w")

	// Shape mismatch.
	comp.PutF32(name, []int{1}, []float32{3})
	reject("shape-mismatch", "shape")
	comp[name] = saved

	// Wrong identity.
	comp.PutI64("classes", 11)
	reject("wrong-classes", "classes")
	comp.PutI64("classes", 10)

	if err := CheckModelState(dst, comp); err != nil {
		t.Fatalf("check of the repaired component = %v", err)
	}
	if !sameBits(before, flatWeights(dst)) {
		t.Fatal("CheckModelState wrote to the model")
	}
}

func TestSnapshotFileRoundTripAndErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	snap := modelSnapshot(t, newPico(3))
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Restore(ModelState(newPico(4))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing file must error")
	}
	// The atomic write leaves no temp droppings behind.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory has %d entries after atomic save (%v), want 1", len(entries), err)
	}

	// Truncated file: descriptive decode error, not a panic or partial load.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(trunc, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(trunc); err == nil || !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("truncated read = %v, want truncated/corrupt error", err)
	}

	// Format-version mismatch.
	bad := modelSnapshot(t, newPico(3))
	bad.Format = SnapshotFormat + 5
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "unsupported snapshot format") {
		t.Fatalf("future-format read = %v, want unsupported-format error", err)
	}

	// A file in the retired map layout gets the same error, naming its number.
	old := struct {
		Format     int
		Components map[string]Component
	}{Format: 2, Components: map[string]Component{"model": {"family": Blob{Str: "pico"}}}}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "unsupported snapshot format 2") {
		t.Fatalf("retired-format read = %v, want unsupported-format-2 error", err)
	}
}

func TestReadLatestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Enqueue(3, modelSnapshot(t, newPico(7)))
	w.Enqueue(6, modelSnapshot(t, newPico(8)))
	w.Close()
	for _, ev := range w.Drain() {
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
	}
	// Corrupt the newest snapshot, as a crash mid-write would on a
	// filesystem without atomic rename; resume must fall back to step 3.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(6)), []byte("shredded"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, path, err := ReadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, snapshotName(3)) {
		t.Fatalf("fell back to %s, want %s", path, snapshotName(3))
	}
	if err := snap.Restore(ModelState(newPico(9))); err != nil {
		t.Fatal(err)
	}
	// An empty directory is a descriptive error.
	if _, _, err := ReadLatestSnapshot(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no snapshots") {
		t.Fatalf("empty-dir read = %v, want no-snapshots error", err)
	}
}

func TestWriterKeepLastPrunes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(1); step <= 5; step++ {
		w.Enqueue(step, modelSnapshot(t, newPico(step)))
	}
	w.Close()
	paths, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("kept %d snapshots, want 2: %v", len(paths), paths)
	}
	if !strings.Contains(paths[0], snapshotName(4)) || !strings.Contains(paths[1], snapshotName(5)) {
		t.Fatalf("kept wrong snapshots: %v", paths)
	}
	// A new writer over the same directory counts existing files against
	// the bound.
	w2, err := NewWriter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2.Enqueue(6, modelSnapshot(t, newPico(6)))
	w2.Close()
	paths, _ = ListSnapshots(dir)
	if len(paths) != 2 || !strings.Contains(paths[1], snapshotName(6)) {
		t.Fatalf("cross-process pruning kept %v", paths)
	}
}

func TestSnapshotListingIgnoresTempDroppings(t *testing.T) {
	// A crash mid-write leaves step-N.ckpt.tmp-XXX next to real snapshots.
	// Those must not be listed as snapshots (they would waste keep-last
	// retention slots and resume decode attempts), and a new writer sweeps
	// them away.
	dir := t.TempDir()
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Enqueue(4, modelSnapshot(t, newPico(1)))
	w.Close()
	dropping := filepath.Join(dir, "step-000000009.ckpt.tmp-12345")
	if err := os.WriteFile(dropping, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "step-notanumber.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !strings.Contains(paths[0], snapshotName(4)) {
		t.Fatalf("listing includes non-snapshots: %v", paths)
	}
	if _, path, err := ReadLatestSnapshot(dir); err != nil || !strings.Contains(path, snapshotName(4)) {
		t.Fatalf("latest = %s (%v), want step 4", path, err)
	}
	// A fresh writer over the directory sweeps the temp dropping.
	w2, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if _, err := os.Stat(dropping); !os.IsNotExist(err) {
		t.Fatalf("temp dropping survived writer startup: %v", err)
	}
}

func TestWriterReportsFailures(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the writer so the write fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	w.Enqueue(1, modelSnapshot(t, newPico(1)))
	w.Flush()
	evs := w.Drain()
	w.Close()
	if len(evs) != 1 || evs[0].Err == nil {
		t.Fatalf("events = %+v, want one failure", evs)
	}
}
