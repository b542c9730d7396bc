package data

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"effnetscale/internal/rng"
	"effnetscale/internal/tensor"
)

// Batch is one prefetched unit of work flowing through a Pipeline. Its
// tensors come from a bounded BufferPool; the consumer must hand a delivered
// batch back with Pipeline.Recycle once it is done reading, which is what
// keeps the pipeline allocation-free in steady state.
type Batch struct {
	Images *tensor.Tensor
	Labels []int
	Epoch  int
	Step   int
	// N is the number of valid samples. A ragged final evaluation batch has
	// N < Images.Dim(0): only the first N samples were rendered (the
	// wrap-around tail is never drawn), and entries past N are stale.
	N int
	// AugDraws is the cumulative augmentation-RNG position (rng.Stream
	// draws since AugmentSeed) after this batch was augmented — the
	// data-pipeline cursor a training snapshot records. The producer runs
	// ahead of the consumer, so the live stream's position belongs to
	// batches not yet consumed; the per-batch stamp is the position as of
	// what the consumer has actually seen. 0 when augmentation is off.
	AugDraws uint64

	// pooled tracks whether the batch currently sits in its BufferPool's
	// free list, so a double Recycle fails loudly instead of silently
	// aliasing one buffer to two holders.
	pooled bool
}

// BufferPool is a bounded free list of batch buffers. A pool may be shared
// across successive pipelines of identical batch geometry (the per-replica
// evaluation prefetchers reuse one pool across Evaluate calls), so batch
// tensors are allocated once per replica, not once per step or per call.
type BufferPool struct {
	ch chan *Batch
}

// NewBufferPool pre-allocates n batch buffers of shape
// [batchSize, 3, resolution, resolution].
func NewBufferPool(n, batchSize, resolution int) *BufferPool {
	p := &BufferPool{ch: make(chan *Batch, n)}
	for i := 0; i < n; i++ {
		p.ch <- &Batch{
			Images: tensor.New(batchSize, 3, resolution, resolution),
			Labels: make([]int, batchSize),
			pooled: true,
		}
	}
	return p
}

// Get blocks until a free buffer is available, returning nil if stop closes
// first (nil stop never aborts). Direct consumers — the inference batcher
// runs forwards over pooled batch tensors without a Pipeline in front — pair
// each Get with a Put; batches delivered by a Pipeline are returned via
// Pipeline.Recycle instead.
func (p *BufferPool) Get(stop <-chan struct{}) *Batch { return p.get(stop) }

// Put hands a buffer obtained via Get back to the pool. Putting a batch
// twice, or a batch from another pool, panics — the double-free would alias
// one buffer to two holders.
func (p *BufferPool) Put(b *Batch) { p.put(b) }

// get blocks until a free buffer is available or stop closes.
func (p *BufferPool) get(stop <-chan struct{}) *Batch {
	select {
	case b := <-p.ch:
		b.pooled = false
		return b
	case <-stop:
		return nil
	}
}

// put returns a buffer to the pool. The pool is sized to hold every buffer
// it handed out, so the send never blocks; a batch recycled twice (which
// would alias one buffer to two holders — the producer overwriting pixels
// another consumer is still reading) panics instead of corrupting data.
func (p *BufferPool) put(b *Batch) {
	if b.pooled {
		panic("data: batch recycled twice")
	}
	b.pooled = true
	select {
	case p.ch <- b:
	default:
		panic("data: buffer pool overflow (batch from another pool?)")
	}
}

// PipelineConfig assembles a prefetching input pipeline over one shard.
type PipelineConfig struct {
	// Shard supplies the sample indices and rendering; it must be non-empty
	// and must not be used by anyone else while the pipeline runs (Shard is
	// not safe for concurrent use).
	Shard *Shard
	// BatchSize is the number of samples per delivered batch.
	BatchSize int
	// StepsPerEpoch is the number of steps per epoch: after that many
	// batches the epoch increments and the shard reshuffles. For training
	// pipelines under gradient accumulation this counts micro-steps
	// (engine steps × accumulation factor).
	StepsPerEpoch int
	// Depth is the number of rendered batches buffered ahead of the
	// consumer (minimum 1). The pipeline owns Depth+1 buffers — the classic
	// double buffer at Depth 1: one batch in the consumer's hands, one
	// rendering ahead.
	Depth int
	// Augment applies training augmentation inside the pipeline, drawing
	// from a single RNG stream seeded with AugmentSeed and consumed in
	// batch order — bit-for-bit Shard.FillBatch followed by Augment with
	// one such RNG.
	Augment     bool
	AugmentSeed int64
	// StartEpoch/StartStep position the first delivered batch mid-stream:
	// a pipeline restored from a training snapshot resumes at the exact
	// (epoch, step) the interrupted run would have consumed next, including
	// mid-epoch. Both default to 0 (a fresh run).
	StartEpoch int
	StartStep  int
	// AugDraws fast-forwards the augmentation stream to the given position
	// (draws already consumed from AugmentSeed's sequence) before the first
	// batch renders — the Batch.AugDraws stamp the snapshot recorded.
	AugDraws uint64
	// MaxSamples, when > 0, makes the run finite: the pipeline delivers
	// ceil(MaxSamples/BatchSize) batches starting at epoch 0 step 0 — the
	// last one ragged (Batch.N < BatchSize) when BatchSize does not divide
	// MaxSamples — and then Next reports exhaustion. 0 streams forever.
	MaxSamples int
	// Pool supplies the batch buffers; nil builds a private pool of Depth+1
	// buffers. A shared pool must hold buffers of matching shape.
	Pool *BufferPool
}

// Pipeline prefetches shard batches on a background goroutine — the
// host-side input pipeline that keeps accelerator cores fed (§3.3). Next
// delivers batches in deterministic (epoch, step) order; consumers Recycle
// each batch after use and call Stop when done.
type Pipeline struct {
	cfg  PipelineConfig
	pool *BufferPool
	ch   chan *Batch
	stop chan struct{}
	done chan struct{}
	once sync.Once

	// starved counts Next calls that found the pipeline empty and had to
	// block — the producer fell behind the consumer. Detected with one
	// non-blocking receive attempt, so the counter is always on (no clock
	// reads); the telemetry layer reads per-step deltas when attached.
	starved atomic.Int64
}

// NewPipeline validates cfg and starts the producer goroutine.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Shard == nil {
		return nil, fmt.Errorf("data: pipeline needs a shard")
	}
	if cfg.Shard.Len() == 0 {
		return nil, fmt.Errorf("data: pipeline over empty shard (split %d has %d samples for world %d)",
			cfg.Shard.Split, cfg.Shard.TotalLen(), cfg.Shard.World)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("data: pipeline batch size %d must be >= 1", cfg.BatchSize)
	}
	if cfg.StepsPerEpoch < 1 {
		return nil, fmt.Errorf("data: pipeline steps per epoch %d must be >= 1", cfg.StepsPerEpoch)
	}
	if cfg.StartEpoch < 0 || cfg.StartStep < 0 || cfg.StartStep >= cfg.StepsPerEpoch {
		return nil, fmt.Errorf("data: pipeline start position (%d, %d) out of range (steps per epoch %d)", cfg.StartEpoch, cfg.StartStep, cfg.StepsPerEpoch)
	}
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewBufferPool(cfg.Depth+1, cfg.BatchSize, cfg.Shard.D.cfg.Resolution)
	}
	p := &Pipeline{
		cfg:  cfg,
		pool: pool,
		ch:   make(chan *Batch, cfg.Depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.run()
	return p, nil
}

// run is the producer: render, augment, deliver, forever (or until
// MaxSamples batches are out, or Stop).
func (p *Pipeline) run() {
	defer close(p.done)
	defer close(p.ch)
	var augStream *rng.Stream
	var augRand *rand.Rand
	if p.cfg.Augment {
		// Resume support: the stream is positioned AugDraws transitions
		// into the seed's sequence — 0 for a fresh run, the snapshot's
		// recorded cursor when restoring.
		augStream = rng.Restore(p.cfg.AugmentSeed, p.cfg.AugDraws)
		augRand = augStream.Rand()
	}
	bs := p.cfg.BatchSize
	remaining := -1 // infinite
	if p.cfg.MaxSamples > 0 {
		remaining = p.cfg.MaxSamples
	}
	for epoch := p.cfg.StartEpoch; ; epoch++ {
		step := 0
		if epoch == p.cfg.StartEpoch {
			step = p.cfg.StartStep
		}
		for ; step < p.cfg.StepsPerEpoch; step++ {
			if remaining == 0 {
				return
			}
			b := p.pool.get(p.stop)
			if b == nil {
				return
			}
			cnt := bs
			if remaining > 0 && remaining < cnt {
				cnt = remaining
			}
			b.Epoch, b.Step, b.N, b.AugDraws = epoch, step, cnt, 0
			p.cfg.Shard.FillBatchN(epoch, step, cnt, b.Images, b.Labels)
			if p.cfg.Augment {
				Augment(b.Images, augRand)
				b.AugDraws = augStream.Draws()
			}
			select {
			case p.ch <- b:
				if remaining > 0 {
					remaining -= cnt
				}
			case <-p.stop:
				p.pool.put(b)
				return
			}
		}
	}
}

// Next returns the next prefetched batch in (epoch, step) order, blocking
// until one is ready. ok is false once the pipeline is exhausted (finite
// runs) or stopped. The caller must Recycle the batch when done with it.
func (p *Pipeline) Next() (b *Batch, ok bool) {
	select {
	case b, ok = <-p.ch:
		// Fast path: a batch was already rendered and waiting (a closed
		// channel is also always ready — exhaustion is not starvation).
		return b, ok
	default:
	}
	p.starved.Add(1)
	b, ok = <-p.ch
	return b, ok
}

// Starved returns the cumulative count of Next calls that blocked because no
// batch was ready — the pipeline-starvation counter telemetry reports per
// step. Safe to call concurrently with Next.
func (p *Pipeline) Starved() int64 { return p.starved.Load() }

// Recycle hands a delivered batch's buffers back to the pool for reuse.
// After Recycle the batch contents may be overwritten at any moment.
func (p *Pipeline) Recycle(b *Batch) {
	p.pool.put(b)
}

// Stop terminates the producer and blocks until it has exited: after Stop
// returns, no pipeline goroutine is running and none of the pool's buffers
// are being written. Batches still buffered are drained back into the pool
// with their contents discarded, and Next reports exhaustion. Batches already
// in the consumer's hands stay valid until Recycled. Stop is idempotent and
// also runs implicitly to completion on finite pipelines, but calling it is
// always safe and releases the buffers promptly.
func (p *Pipeline) Stop() {
	p.once.Do(func() { close(p.stop) })
	for b := range p.ch {
		p.pool.put(b)
	}
	<-p.done
}
