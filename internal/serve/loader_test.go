package serve

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/tensor"
)

// writeSnapshot captures m's model state into dir under the training
// engine's snapshot naming scheme.
func writeSnapshot(t *testing.T, dir string, step int64, m *efficientnet.Model) string {
	t.Helper()
	s := checkpoint.NewSnapshot()
	if err := s.Capture(checkpoint.ModelState(m)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("step-%09d.ckpt", step))
	if err := checkpoint.WriteSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// logitsOf runs one deterministic prediction through a batcher over the
// given provider.
func logitsOf(t *testing.T, p ModelProvider) []float32 {
	t.Helper()
	b, err := NewBatcher(Config{Provider: p, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pred, err := b.Predict(testPixels(b.SampleLen(), 42))
	if err != nil {
		t.Fatal(err)
	}
	return pred.Logits
}

// sameLogits reports whether a and b are bitwise equal.
func sameLogits(a, b []float32) bool {
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

// TestLoaderBootsFromSnapshotFile: given a single model-only snapshot file,
// the loader must reconstruct the architecture from the file alone and serve
// the saved weights.
func TestLoaderBootsFromSnapshotFile(t *testing.T) {
	m := testModel(t, 5, 4, 16)
	path := writeSnapshot(t, t.TempDir(), 7, m)
	l, err := NewLoader(LoaderConfig{WeightsPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lm, tag := l.Current()
	if tag != filepath.Base(path) {
		t.Errorf("tag %q, want %s", tag, filepath.Base(path))
	}
	if lm.Config.Name != "pico" || lm.Config.NumClasses != 4 || lm.Config.Resolution != 16 {
		t.Errorf("loaded %s/%d/%d, want pico/4/16", lm.Config.Name, lm.Config.NumClasses, lm.Config.Resolution)
	}
	// Served logits must match the saved model bit for bit.
	if !sameLogits(logitsOf(t, l), logitsOf(t, Static{M: m})) {
		t.Error("loader-served logits differ from the saved model's")
	}
}

// TestLoaderBootsFromLatestSnapshot: with several snapshots in the
// directory, boot picks the newest.
func TestLoaderBootsFromLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	old := testModel(t, 1, 4, 16)
	newer := testModel(t, 2, 4, 16)
	writeSnapshot(t, dir, 10, old)
	writeSnapshot(t, dir, 20, newer)
	l, err := NewLoader(LoaderConfig{SnapshotDir: dir, Poll: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, tag := l.Current(); tag != "step-000000020.ckpt" {
		t.Errorf("tag %q, want step-000000020.ckpt", tag)
	}
	if !sameLogits(logitsOf(t, l), logitsOf(t, Static{M: newer})) {
		t.Error("loader did not serve the newest snapshot's weights")
	}
}

// TestLoaderHotReload: a new snapshot appearing in the watched directory
// must swap in without restarting, and predictions issued throughout must
// all succeed (run under -race this covers the swap-vs-serve interleaving).
func TestLoaderHotReload(t *testing.T) {
	dir := t.TempDir()
	v1 := testModel(t, 1, 4, 16)
	v2 := testModel(t, 2, 4, 16)
	writeSnapshot(t, dir, 1, v1)
	swapped := make(chan string, 1)
	l, err := NewLoader(LoaderConfig{
		SnapshotDir: dir,
		Poll:        5 * time.Millisecond,
		OnSwap:      func(tag string) { swapped <- tag },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b, err := NewBatcher(Config{Provider: l, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Keep traffic flowing across the swap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			px := testPixels(b.SampleLen(), int64(g))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.Predict(px); err != nil {
					t.Errorf("predict during reload: %v", err)
					return
				}
			}
		}(g)
	}

	writeSnapshot(t, dir, 2, v2)
	select {
	case tag := <-swapped:
		if tag != "step-000000002.ckpt" {
			t.Errorf("swapped to %q, want step-000000002.ckpt", tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hot reload never happened")
	}
	close(stop)
	wg.Wait()
	if n := l.Reloads(); n != 1 {
		t.Errorf("reloads %d, want 1", n)
	}
	if !sameLogits(logitsOf(t, l), logitsOf(t, Static{M: v2})) {
		t.Error("post-reload logits do not match the new snapshot's weights")
	}
}

// TestLoaderKeepsServingOnCorruptSnapshot: an unreadable new snapshot must
// not take down the server — the old model keeps serving and the error
// surfaces through OnError.
func TestLoaderKeepsServingOnCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	v1 := testModel(t, 1, 4, 16)
	writeSnapshot(t, dir, 1, v1)
	errc := make(chan error, 16)
	l, err := NewLoader(LoaderConfig{
		SnapshotDir: dir,
		Poll:        5 * time.Millisecond,
		OnError: func(err error) {
			select {
			case errc <- err:
			default: // the same bad snapshot reports every poll; don't block the watcher
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := os.WriteFile(filepath.Join(dir, "step-000000002.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !strings.Contains(err.Error(), "step-000000002.ckpt") {
			t.Errorf("error does not name the bad snapshot: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("corrupt snapshot never reported")
	}
	if _, tag := l.Current(); tag != "step-000000001.ckpt" {
		t.Errorf("still-serving tag %q, want step-000000001.ckpt", tag)
	}
	if l.Reloads() != 0 {
		t.Errorf("reloads %d, want 0", l.Reloads())
	}
}

// TestLoaderRejectsGeometryChange: a newer snapshot of another class count
// must not replace the serving model — every request would then fail the
// batcher's shape check. The loader reports it naming both geometries,
// keeps serving the old weights, and does not count a reload.
func TestLoaderRejectsGeometryChange(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, dir, 1, testModel(t, 1, 4, 16))
	errc := make(chan error, 1)
	l, err := NewLoader(LoaderConfig{
		SnapshotDir: dir,
		Poll:        5 * time.Millisecond,
		OnError: func(err error) {
			select {
			case errc <- err:
			default: // reported again every poll
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b, err := NewBatcher(Config{Provider: l, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	writeSnapshot(t, dir, 2, testModel(t, 2, 6, 16))
	select {
	case err := <-errc:
		for _, s := range []string{"step-000000002.ckpt", "6 classes @ res 16", "4 classes @ res 16"} {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("error does not name %q: %v", s, err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("geometry change never reported")
	}
	if _, tag := l.Current(); tag != "step-000000001.ckpt" {
		t.Errorf("serving %q, want step-000000001.ckpt", tag)
	}
	if n := l.Reloads(); n != 0 {
		t.Errorf("reloads %d, want 0", n)
	}
	if _, err := b.Predict(testPixels(b.SampleLen(), 1)); err != nil {
		t.Errorf("predict after rejected reload: %v", err)
	}
}

// TestPlanPerGenerationUnderLoaderSwap: two workers share one frozen plan per
// model generation, each running it in its own workspace. Across a hot reload
// every reply is bit for bit the direct Model.Infer of the generation its tag
// names, and once the swap has happened the new generation answers. Run
// under -race.
func TestPlanPerGenerationUnderLoaderSwap(t *testing.T) {
	dir := t.TempDir()
	const v1, v2 = "step-000000001.ckpt", "step-000000002.ckpt"
	gens := map[string]*efficientnet.Model{v1: testModel(t, 1, 4, 16), v2: testModel(t, 2, 4, 16)}
	writeSnapshot(t, dir, 1, gens[v1])
	swapped := make(chan string, 1)
	l, err := NewLoader(LoaderConfig{SnapshotDir: dir, Poll: 5 * time.Millisecond, OnSwap: func(tag string) { swapped <- tag }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b, err := NewBatcher(Config{Provider: l, MaxBatch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pool := make([][]float32, 4)
	want := map[string][][]float32{}
	for i := range pool {
		pool[i] = testPixels(b.SampleLen(), int64(200+i))
		for tag, m := range gens {
			want[tag] = append(want[tag], m.Infer(bf16.FP32Policy, tensor.FromSlice(pool[i], 1, 3, 16, 16)).Data())
		}
	}
	// check predicts image i and reports the tag that answered, and whether
	// the logits are that generation's.
	check := func(i int) (string, bool) {
		p, err := b.Predict(pool[i])
		if err != nil {
			t.Errorf("predict: %v", err)
			return "", false
		}
		if w, ok := want[p.Model]; !ok || !sameLogits(p.Logits, w[i]) {
			t.Errorf("image %d tagged %q: logits differ from that generation's Model.Infer", i, p.Model)
			return p.Model, false
		}
		return p.Model, true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2*len(pool); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := check(g % len(pool)); !ok {
					return
				}
			}
		}(g)
	}
	writeSnapshot(t, dir, 2, gens[v2])
	timeout := time.After(10 * time.Second)
	select {
	case <-swapped:
	case <-timeout:
	}
	close(stop)
	wg.Wait()
	if l.Reloads() != 1 {
		t.Fatal("hot reload never happened")
	}
	for i := range pool {
		if tag, _ := check(i); tag != v2 {
			t.Errorf("after the swap image %d was served by %q", i, tag)
		}
	}
}

func TestLoaderConfigValidation(t *testing.T) {
	if _, err := NewLoader(LoaderConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewLoader(LoaderConfig{WeightsPath: "a", SnapshotDir: "b"}); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := NewLoader(LoaderConfig{SnapshotDir: t.TempDir()}); err == nil {
		t.Error("empty snapshot dir accepted")
	}
}
