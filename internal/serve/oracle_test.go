package serve

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/tensor"
)

// oracleCall is one Predict of a randomized schedule and what it returned.
type oracleCall struct {
	img        int // index into the pixel pool
	afterClose bool
	pred       Prediction
	err        error
	// peak is the most Predict calls outstanding at once while this one was.
	peak int
}

// outstanding tracks the Predict calls in progress, so a shed request can be
// checked against how many requests were really waiting.
type outstanding struct {
	mu   sync.Mutex
	live map[*oracleCall]struct{}
}

func (o *outstanding) start(c *oracleCall) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.live[c] = struct{}{}
	for l := range o.live {
		l.peak = max(l.peak, len(o.live))
	}
}

func (o *outstanding) end(c *oracleCall) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.live, c)
}

// TestRandomizedBatcherOracle drives batchers of random shape through seeded
// random interleavings of arrivals, model swaps and one Close, and checks
// every outcome against a sequential model of the contract:
//
//   - an admitted request gets exactly one reply, and its logits are bitwise
//     those of a direct Model.Infer of the model its tag names;
//   - every batch holds between 1 and MaxBatch requests;
//   - Stats().Requests equals the number of replies and Stats().Dropped the
//     number of ErrOverloaded;
//   - every Predict issued after Close has returned gets ErrClosed;
//   - ErrOverloaded appears only while more than QueueCap requests are
//     outstanding.
//
// Run it under -race, and with GOMAXPROCS=1, where the interleavings differ.
func TestRandomizedBatcherOracle(t *testing.T) {
	const seeds, images = 60, 6
	models := map[string]*efficientnet.Model{"v1": testModel(t, 1, 4, 16), "v2": testModel(t, 2, 4, 16)}
	pool := make([][]float32, images)
	for i := range pool {
		pool[i] = testPixels(3*16*16, int64(100+i))
	}
	want := map[string][][]float32{}
	for tag, m := range models {
		for _, px := range pool {
			want[tag] = append(want[tag], m.Infer(bf16.FP32Policy, tensor.FromSlice(px, 1, 3, 16, 16)).Data())
		}
	}

	shed, tags := 0, map[string]bool{}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := &swapProvider{cur: Static{M: models["v1"], Tag: "v1"}, next: Static{M: models["v2"], Tag: "v2"}}
		cfg := Config{Provider: sp, MaxBatch: 1 + rng.Intn(6), Workers: 1 + rng.Intn(3), QueueCap: 1 + rng.Intn(6)}
		b, err := NewBatcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		track := &outstanding{live: map[*oracleCall]struct{}{}}
		predict := func(c *oracleCall) {
			track.start(c)
			c.pred, c.err = b.Predict(pool[c.img])
			track.end(c)
		}

		ops := 20 + rng.Intn(30)
		closeAt := rng.Intn(ops)
		var calls []*oracleCall
		var wg sync.WaitGroup
		closed := false
		for i := 0; i < ops; i++ {
			if i == closeAt {
				if err := b.Close(); err != nil {
					t.Fatalf("seed %d: Close: %v", seed, err)
				}
				closed = true
			}
			if rng.Intn(5) == 0 {
				sp.swap()
			} else {
				c := &oracleCall{img: rng.Intn(images), afterClose: closed}
				calls = append(calls, c)
				if closed {
					predict(c)
				} else {
					wg.Add(1)
					go func() {
						defer wg.Done()
						predict(c)
					}()
				}
			}
			switch rng.Intn(4) {
			case 0:
				runtime.Gosched()
			case 1:
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
		wg.Wait()

		answered, overloaded := 0, 0
		for i, c := range calls {
			switch {
			case c.afterClose:
				if !errors.Is(c.err, ErrClosed) {
					t.Errorf("seed %d call %d: Predict after Close returned %v, want ErrClosed", seed, i, c.err)
				}
			case errors.Is(c.err, ErrClosed):
			case errors.Is(c.err, ErrOverloaded):
				overloaded++
				if c.peak <= cfg.QueueCap {
					t.Errorf("seed %d call %d: shed with at most %d requests outstanding, QueueCap %d", seed, i, c.peak, cfg.QueueCap)
				}
			case c.err != nil:
				t.Errorf("seed %d call %d: %v", seed, i, c.err)
			default:
				answered++
				tags[c.pred.Model] = true
				if c.pred.BatchSize < 1 || c.pred.BatchSize > cfg.MaxBatch {
					t.Errorf("seed %d call %d: batch of %d, MaxBatch %d", seed, i, c.pred.BatchSize, cfg.MaxBatch)
				}
				ref, ok := want[c.pred.Model]
				if !ok {
					t.Errorf("seed %d call %d: unknown model tag %q", seed, i, c.pred.Model)
					continue
				}
				if !sameLogits(c.pred.Logits, ref[c.img]) {
					t.Errorf("seed %d call %d: logits %v differ from direct Infer of %s %v", seed, i, c.pred.Logits, c.pred.Model, ref[c.img])
				}
			}
		}
		shed += overloaded
		snap := b.Stats()
		if snap.Requests != int64(answered) {
			t.Errorf("seed %d: Stats().Requests %d, %d replies", seed, snap.Requests, answered)
		}
		if snap.Dropped != int64(overloaded) {
			t.Errorf("seed %d: Stats().Dropped %d, %d ErrOverloaded", seed, snap.Dropped, overloaded)
		}
	}
	// The schedules must reach the paths they check.
	if shed == 0 {
		t.Error("no schedule shed a request")
	}
	if !tags["v1"] || !tags["v2"] {
		t.Errorf("replies came from %v, want both models", tags)
	}
}
