package data

import (
	"math/rand"
	"testing"

	"effnetscale/internal/tensor"
)

func newTestPipeline(t *testing.T, cfg PipelineConfig) *Pipeline {
	t.Helper()
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineMatchesInline(t *testing.T) {
	// The prefetched stream must be bit-for-bit the sequence FillBatch +
	// Augment produce inline: same indices per (epoch, step), same
	// augmentation RNG consumption order — the reference the engine's only
	// data path is held to.
	d := miniDataset()
	const bs, stepsPerEpoch, seed = 4, 3, 7
	p := newTestPipeline(t, PipelineConfig{
		Shard: NewShard(d, 0, 1, 2), BatchSize: bs, StepsPerEpoch: stepsPerEpoch,
		Depth: 2, Augment: true, AugmentSeed: seed,
	})
	defer p.Stop()

	inlineShard := NewShard(d, 0, 1, 2)
	rng := rand.New(rand.NewSource(seed))
	want := tensor.New(bs, 3, 16, 16)
	wantLabels := make([]int, bs)
	for i := 0; i < 2*stepsPerEpoch+2; i++ { // crosses an epoch boundary
		epoch, step := i/stepsPerEpoch, i%stepsPerEpoch
		inlineShard.FillBatch(epoch, step, want, wantLabels)
		Augment(want, rng)

		b, ok := p.Next()
		if !ok {
			t.Fatalf("pipeline closed at batch %d", i)
		}
		if b.Epoch != epoch || b.Step != step || b.N != bs {
			t.Fatalf("batch %d: got (%d,%d,N=%d), want (%d,%d,N=%d)", i, b.Epoch, b.Step, b.N, epoch, step, bs)
		}
		for j := range wantLabels {
			if b.Labels[j] != wantLabels[j] {
				t.Fatalf("batch %d label %d: %d vs inline %d", i, j, b.Labels[j], wantLabels[j])
			}
		}
		for j, v := range want.Data() {
			if b.Images.Data()[j] != v {
				t.Fatalf("batch %d pixel %d differs from inline path", i, j)
			}
		}
		p.Recycle(b)
	}
}

func TestPipelineResumeCursorMatchesContinuousStream(t *testing.T) {
	// A pipeline restarted mid-stream from (StartEpoch, StartStep, AugDraws)
	// must deliver exactly the batches the original pipeline would have
	// delivered next — pixels, labels and augmentation included. This is the
	// data-side half of killed-at-step-k training resume.
	d := miniDataset()
	const bs, stepsPerEpoch, seed = 4, 3, 11
	mk := func(startEpoch, startStep int, augDraws uint64) *Pipeline {
		return newTestPipeline(t, PipelineConfig{
			Shard: NewShard(d, 0, 0, 2), BatchSize: bs, StepsPerEpoch: stepsPerEpoch,
			Depth: 2, Augment: true, AugmentSeed: seed,
			StartEpoch: startEpoch, StartStep: startStep, AugDraws: augDraws,
		})
	}
	full := mk(0, 0, 0)
	defer full.Stop()

	// Consume 4 batches (one past the epoch boundary at 3) and record the
	// cursor the consumer would snapshot: mid-epoch interruption.
	var draws uint64
	for i := 0; i < 4; i++ {
		b, ok := full.Next()
		if !ok {
			t.Fatal("pipeline closed early")
		}
		draws = b.AugDraws
		if draws == 0 {
			t.Fatal("AugDraws not stamped")
		}
		full.Recycle(b)
	}
	resumed := mk(1, 1, draws) // micro position 4 = epoch 1, step 1
	defer resumed.Stop()
	for i := 4; i < 9; i++ {
		want, ok := full.Next()
		if !ok {
			t.Fatal("continuous pipeline closed early")
		}
		got, ok := resumed.Next()
		if !ok {
			t.Fatal("resumed pipeline closed early")
		}
		if got.Epoch != want.Epoch || got.Step != want.Step || got.AugDraws != want.AugDraws {
			t.Fatalf("batch %d: resumed (%d,%d,%d) vs continuous (%d,%d,%d)",
				i, got.Epoch, got.Step, got.AugDraws, want.Epoch, want.Step, want.AugDraws)
		}
		for j := range want.Labels {
			if got.Labels[j] != want.Labels[j] {
				t.Fatalf("batch %d label %d differs after resume", i, j)
			}
		}
		for j, v := range want.Images.Data() {
			if got.Images.Data()[j] != v {
				t.Fatalf("batch %d pixel %d differs after resume", i, j)
			}
		}
		full.Recycle(want)
		resumed.Recycle(got)
	}
}

func TestPipelineRejectsBadStartPosition(t *testing.T) {
	d := miniDataset()
	_, err := NewPipeline(PipelineConfig{
		Shard: NewShard(d, 0, 0, 1), BatchSize: 2, StepsPerEpoch: 3, StartStep: 3,
	})
	if err == nil {
		t.Fatal("StartStep >= StepsPerEpoch must error")
	}
	_, err = NewPipeline(PipelineConfig{
		Shard: NewShard(d, 0, 0, 1), BatchSize: 2, StepsPerEpoch: 3, StartEpoch: -1,
	})
	if err == nil {
		t.Fatal("negative StartEpoch must error")
	}
}

func TestPipelineStopBlocksUntilProducerExits(t *testing.T) {
	d := miniDataset()
	p := newTestPipeline(t, PipelineConfig{
		Shard: NewShard(d, 0, 0, 1), BatchSize: 4, StepsPerEpoch: 3, Depth: 2,
	})
	b, ok := p.Next()
	if !ok {
		t.Fatal("pipeline closed immediately")
	}
	p.Recycle(b)
	p.Stop()
	// After Stop: the producer has exited, C is closed, and the buffered
	// batches were drained back into the pool.
	select {
	case <-p.done:
	default:
		t.Fatal("Stop returned before the producer goroutine exited")
	}
	if _, ok := p.Next(); ok {
		t.Fatal("C delivered a batch after Stop drained and closed it")
	}
	if got := len(p.pool.ch); got != p.cfg.Depth+1 {
		t.Fatalf("pool holds %d buffers after Stop, want all %d back", got, p.cfg.Depth+1)
	}
	p.Stop() // idempotent
}

func TestPipelineFiniteRaggedRun(t *testing.T) {
	// MaxSamples=10 at batch 4 must deliver batches of N=4,4,2 and close.
	// The ragged tail is never rendered: with a fresh (zeroed) pool big
	// enough to avoid reuse, the last batch's tail pixels stay zero.
	d := miniDataset()
	p := newTestPipeline(t, PipelineConfig{
		Shard: NewShard(d, 1, 0, 1), BatchSize: 4, StepsPerEpoch: 3,
		Depth: 3, MaxSamples: 10,
	})
	defer p.Stop()
	wantN := []int{4, 4, 2}
	img := 3 * 16 * 16
	for i, n := range wantN {
		b, ok := p.Next()
		if !ok {
			t.Fatalf("pipeline closed after %d batches, want %d", i, len(wantN))
		}
		if b.N != n || b.Epoch != 0 || b.Step != i {
			t.Fatalf("batch %d: (epoch %d, step %d, N %d), want (0, %d, %d)", i, b.Epoch, b.Step, b.N, i, n)
		}
		for s := 0; s < b.N; s++ {
			nonzero := false
			for _, v := range b.Images.Data()[s*img : (s+1)*img] {
				if v != 0 {
					nonzero = true
					break
				}
			}
			if !nonzero {
				t.Fatalf("batch %d sample %d not rendered", i, s)
			}
		}
		for s := b.N; s < 4; s++ {
			for _, v := range b.Images.Data()[s*img : (s+1)*img] {
				if v != 0 {
					t.Fatalf("batch %d: discarded tail sample %d was rendered", i, s)
				}
			}
		}
		p.Recycle(b)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("finite pipeline delivered more batches than MaxSamples allows")
	}
}

func TestPipelineSharedPoolReuse(t *testing.T) {
	// Successive finite pipelines over a shared pool — the evaluation
	// pattern — must keep working and return every buffer by the end.
	d := miniDataset()
	pool := NewBufferPool(3, 4, 16)
	for call := 0; call < 3; call++ {
		p := newTestPipeline(t, PipelineConfig{
			Shard: NewShard(d, 1, 0, 2), BatchSize: 4, StepsPerEpoch: 2,
			Depth: 2, MaxSamples: 7, Pool: pool,
		})
		got := 0
		for {
			b, ok := p.Next()
			if !ok {
				break
			}
			got += b.N
			p.Recycle(b)
		}
		p.Stop()
		if got != 7 {
			t.Fatalf("call %d: scored %d samples, want 7", call, got)
		}
		if len(pool.ch) != 3 {
			t.Fatalf("call %d: pool holds %d buffers, want 3", call, len(pool.ch))
		}
	}
}

func TestPipelineRejectsEmptyShard(t *testing.T) {
	d := miniDataset()
	if _, err := NewPipeline(PipelineConfig{
		Shard: NewShard(d, 1, 99, 100), BatchSize: 4, StepsPerEpoch: 1, Depth: 1,
	}); err == nil {
		t.Fatal("pipeline over an empty shard must error")
	}
}
