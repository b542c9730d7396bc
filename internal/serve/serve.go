package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/tensor"
)

// Sentinel errors Predict can return, testable with errors.Is.
var (
	// ErrClosed reports a Predict after Close.
	ErrClosed = errors.New("serve: batcher closed")
	// ErrOverloaded reports load shedding: the request queue was full. The
	// caller should back off; the server stays healthy.
	ErrOverloaded = errors.New("serve: request queue full")
	// ErrNoModel reports that the provider had no current model: at
	// NewBatcher, or for every request of a batch when Current returned nil.
	ErrNoModel = errors.New("serve: provider has no current model")
)

// ModelProvider yields the model a batch runs on. Current is called once per
// coalesced batch, so a swap between batches takes effect immediately while
// a batch already dispatched finishes on the model it captured. The Batcher
// freezes each model it is handed once (efficientnet.Freeze) and keeps that
// plan while Current returns the same pointer, so a provider hands out a
// fresh model for new weights and never mutates one it has returned.
type ModelProvider interface {
	// Current returns the model and a human-readable version tag
	// (checkpoint file name, snapshot step) stamped into predictions.
	Current() (*efficientnet.Model, string)
}

// Static is a ModelProvider pinned to one model — the no-hot-reload case and
// the test seam.
type Static struct {
	M   *efficientnet.Model
	Tag string
}

// Current implements ModelProvider.
func (s Static) Current() (*efficientnet.Model, string) { return s.M, s.Tag }

// Config assembles a Batcher.
type Config struct {
	// Provider supplies the model (required). Its model's resolution and
	// class count fix the request shape.
	Provider ModelProvider
	// MaxBatch is the coalescing limit: a worker takes at most this many
	// queued requests into one forward. Defaults to 32.
	MaxBatch int
	// MaxWait is ignored: a worker never waits for a batch to fill.
	//
	// Deprecated: ignored.
	MaxWait time.Duration
	// Workers is the number of concurrent inference workers. Defaults to 1;
	// raise it when forwards underuse the host (small batches, multi-core).
	Workers int
	// QueueCap bounds requests no worker has taken yet; beyond it Predict
	// sheds load with ErrOverloaded. Defaults to 4×MaxBatch (min 16).
	QueueCap int
	// Precision is the inference mixed-precision policy. The zero value is
	// full fp32. Under a bf16 policy the weights are rounded once, when a
	// model is frozen; only the activations entering each convolution are
	// rounded per call, which off-TPU is pure overhead.
	Precision bf16.Policy
	// Sinks receive a BatchRecord per completed batch, after the requests
	// are answered. The Batcher closes them on Close.
	Sinks []Sink
}

// request is one queued Predict call.
type request struct {
	pixels []float32
	enq    time.Time
	resp   chan result
}

type result struct {
	pred Prediction
	err  error
}

// Prediction is one request's inference result.
type Prediction struct {
	// Class is the argmax class index.
	Class int
	// Logits are the raw per-class scores (caller-owned copy).
	Logits []float32
	// Model is the version tag of the weights that served the request.
	Model string
	// BatchSize is the coalesced batch the request rode in — the
	// observability hook for verifying batching behavior end to end.
	BatchSize int
	// Latency is enqueue-to-reply wall time.
	Latency time.Duration
}

// Batcher coalesces concurrent Predict calls into batched tape-free
// forwards. Construct with NewBatcher; all methods are safe for concurrent
// use.
type Batcher struct {
	cfg       Config
	res       int // input resolution, from the provider's model
	classes   int
	sampleLen int // 3 × res × res

	queue chan *request

	mu     sync.RWMutex // guards closed ↔ queue sends (close-vs-send race)
	closed bool

	workers   sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	pool  *data.BufferPool
	stats *Stats
	sinks []Sink

	// The plan of the model generation the workers last ran, shared by them
	// and rebuilt when the provider hands out another model; seen is the
	// last model that has served its first batch.
	planMu          sync.Mutex
	planModel, seen *efficientnet.Model
	plan            *efficientnet.Plan
}

// NewBatcher validates cfg, applies defaults, and starts the worker
// goroutines.
func NewBatcher(cfg Config) (*Batcher, error) {
	if cfg.Provider == nil {
		return nil, fmt.Errorf("serve: Config.Provider is required")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 32
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("serve: MaxBatch %d must be >= 1", cfg.MaxBatch)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("serve: Workers %d must be >= 1", cfg.Workers)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 4 * cfg.MaxBatch
		if cfg.QueueCap < 16 {
			cfg.QueueCap = 16
		}
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("serve: QueueCap %d must be >= 1", cfg.QueueCap)
	}
	m, _ := cfg.Provider.Current()
	if m == nil {
		return nil, ErrNoModel
	}
	res := m.Config.Resolution
	b := &Batcher{
		cfg:       cfg,
		res:       res,
		classes:   m.Config.NumClasses,
		sampleLen: 3 * res * res,
		queue:     make(chan *request, cfg.QueueCap),
		// One pooled input tensor per worker: a worker holds at most one
		// batch buffer at a time, so Get below never blocks.
		pool:  data.NewBufferPool(cfg.Workers, cfg.MaxBatch, res),
		stats: NewStats(cfg.MaxBatch),
	}
	b.sinks = append([]Sink{b.stats}, cfg.Sinks...)
	for i := 0; i < cfg.Workers; i++ {
		b.workers.Add(1)
		go b.worker()
	}
	return b, nil
}

// Resolution returns the input resolution requests must match.
func (b *Batcher) Resolution() int { return b.res }

// Classes returns the model's class count (the logits length).
func (b *Batcher) Classes() int { return b.classes }

// SampleLen returns the required pixel-slice length: 3 × res × res, NCHW.
func (b *Batcher) SampleLen() int { return b.sampleLen }

// Predict enqueues one image ([3,res,res] pixels, flattened NCHW) and blocks
// until its batch has been served. It never blocks on a full queue: beyond
// QueueCap it fails fast with ErrOverloaded so saturation shows up as shed
// load, not unbounded latency. The pixel slice is copied into the pooled
// batch tensor at dispatch; the caller may reuse it once Predict returns.
func (b *Batcher) Predict(pixels []float32) (Prediction, error) {
	if len(pixels) != b.sampleLen {
		return Prediction{}, fmt.Errorf("serve: got %d pixels, want %d (3×%d×%d NCHW)",
			len(pixels), b.sampleLen, b.res, b.res)
	}
	r := &request{pixels: pixels, enq: time.Now(), resp: make(chan result, 1)}
	// The read lock excludes Close's closed=true + close(queue) transition,
	// so a send can never hit a closed channel.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return Prediction{}, ErrClosed
	}
	select {
	case b.queue <- r:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.stats.dropped.Add(1)
		return Prediction{}, ErrOverloaded
	}
	res := <-r.resp
	return res.pred, res.err
}

// worker pulls batches from the queue until Close has closed it and it is
// drained. It blocks only for a batch's first request; the rest of the batch
// is whatever is already queued, so a lone request runs at once and a busy
// worker's backlog becomes its next batch. When the queue runs dry before
// the batch is full, the worker yields once and takes what arrived: callers
// that are runnable but have not yet run (on one proc, every other caller)
// get to enqueue first, instead of the worker starving its own batch. Each
// worker runs its forwards in a workspace of its own.
func (b *Batcher) worker() {
	defer b.workers.Done()
	reqs := make([]*request, 0, b.cfg.MaxBatch)
	ws := efficientnet.NewWorkspace()
	defer ws.Release()
	for r := range b.queue {
		reqs = b.take(append(reqs[:0], r))
		if len(reqs) < b.cfg.MaxBatch {
			runtime.Gosched()
			reqs = b.take(reqs)
		}
		b.runBatch(reqs, ws)
	}
}

// take appends queued requests to reqs, without blocking, until the batch
// is full or the queue is empty.
func (b *Batcher) take(reqs []*request) []*request {
	for len(reqs) < b.cfg.MaxBatch {
		select {
		case r, ok := <-b.queue:
			if !ok {
				return reqs
			}
			reqs = append(reqs, r)
		default:
			return reqs
		}
	}
	return reqs
}

// planFor returns the frozen plan of m, or nil for the first batch m serves.
// That batch runs Model.Infer, which packs nothing, so the first reply after
// a boot or a reload does not wait for the weights to be packed; the next
// batch freezes m once for the rest of the generation.
func (b *Batcher) planFor(m *efficientnet.Model) *efficientnet.Plan {
	b.planMu.Lock()
	defer b.planMu.Unlock()
	switch m {
	case b.planModel:
		return b.plan
	case b.seen:
		b.planModel, b.plan = m, efficientnet.Freeze(m, b.cfg.Precision)
		return b.plan
	}
	b.seen = m
	return nil
}

// runBatch copies the requests into a pooled input tensor, captures the
// provider's current model, runs its frozen plan once in the worker's
// workspace, and answers every request. A model swap between batches is
// invisible here: the pointer is read once, so in-flight requests always
// finish on the weights they started with.
func (b *Batcher) runBatch(reqs []*request, ws *efficientnet.Workspace) {
	buf := b.pool.Get(nil)
	defer b.pool.Put(buf)
	n := len(reqs)
	for i, r := range reqs {
		copy(buf.Images.Data()[i*b.sampleLen:(i+1)*b.sampleLen], r.pixels)
	}
	m, tag := b.cfg.Provider.Current()
	var err error
	switch {
	case m == nil:
		err = ErrNoModel
	case m.Config.Resolution != b.res || m.Config.NumClasses != b.classes:
		err = fmt.Errorf("serve: current model %q is %d classes @ res %d, batcher built for %d @ %d",
			tag, m.Config.NumClasses, m.Config.Resolution, b.classes, b.res)
	}
	if err != nil {
		for _, r := range reqs {
			r.resp <- result{err: err}
		}
		return
	}
	// Ragged batches run on a view of the pooled tensor's first n samples —
	// no copy, and no wasted forward compute on stale tail slots.
	view := buf.Images
	if n < buf.Images.Dim(0) {
		view = tensor.FromSlice(buf.Images.Data()[:n*b.sampleLen], n, 3, b.res, b.res)
	}
	t0 := time.Now()
	var logits *tensor.Tensor
	if p := b.planFor(m); p != nil {
		logits = p.Infer(ws, view)
	} else {
		logits = m.Infer(b.cfg.Precision, view)
	}
	inferWall := time.Since(t0)
	preds := autograd.Argmax(logits)
	k := logits.Dim(1)
	rec := BatchRecord{
		Size:       n,
		QueueDepth: len(b.queue),
		Infer:      inferWall,
		Model:      tag,
		Latencies:  make([]time.Duration, n),
	}
	now := time.Now()
	for i, r := range reqs {
		out := make([]float32, k)
		copy(out, logits.Data()[i*k:(i+1)*k])
		lat := now.Sub(r.enq)
		rec.Latencies[i] = lat
		r.resp <- result{pred: Prediction{
			Class:     preds[i],
			Logits:    out,
			Model:     tag,
			BatchSize: n,
			Latency:   lat,
		}}
	}
	for _, s := range b.sinks {
		s.Record(rec)
	}
}

// Stats returns a consistent snapshot of the serve-side telemetry: request
// and batch counts, shed load, the batch-size histogram, and latency
// percentiles.
func (b *Batcher) Stats() StatsSnapshot { return b.stats.Snapshot() }

// Close stops admission, serves every request already queued (clean
// shutdown: in-flight and queued requests all get answers), waits for the
// workers to drain, then closes the sinks. Idempotent; subsequent Predict
// calls return ErrClosed.
func (b *Batcher) Close() error {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		close(b.queue)
		b.mu.Unlock()
		b.workers.Wait()
		if b.plan != nil {
			b.plan.Release() // every worker has exited: nothing runs it any more
			b.plan, b.planModel = nil, nil
		}
		for _, s := range b.sinks {
			if err := s.Close(); err != nil && b.closeErr == nil {
				b.closeErr = err
			}
		}
	})
	return b.closeErr
}
