package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"effnetscale/internal/efficientnet"
)

// testModel builds a pico model at a tiny resolution, seeded so two calls
// with different seeds yield different weights.
func testModel(t *testing.T, seed int64, classes, res int) *efficientnet.Model {
	t.Helper()
	cfg, ok := efficientnet.ConfigByName("pico", classes)
	if !ok {
		t.Fatal("pico config missing")
	}
	cfg.Resolution = res
	return efficientnet.New(rand.New(rand.NewSource(seed)), cfg)
}

// testPixels renders a deterministic input image for the given sample length.
func testPixels(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	px := make([]float32, n)
	for i := range px {
		px[i] = r.Float32()
	}
	return px
}

func newTestBatcher(t *testing.T, cfg Config) *Batcher {
	t.Helper()
	if cfg.Provider == nil {
		cfg.Provider = Static{M: testModel(t, 1, 4, 16), Tag: "test"}
	}
	b, err := NewBatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestLoneRequestDispatchesWithoutWaiting: a lone request must not wait for
// the batch to fill — an idle worker runs it at once as a batch of one. The
// hour-long MaxWait is ignored; a batcher that honoured it would hang here.
func TestLoneRequestDispatchesWithoutWaiting(t *testing.T) {
	b := newTestBatcher(t, Config{MaxBatch: 32, MaxWait: time.Hour})
	start := time.Now()
	p, err := b.Predict(testPixels(b.SampleLen(), 7))
	if err != nil {
		t.Fatal(err)
	}
	if p.BatchSize != 1 {
		t.Errorf("lone request rode batch of %d, want 1", p.BatchSize)
	}
	if len(p.Logits) != 4 {
		t.Errorf("got %d logits, want 4", len(p.Logits))
	}
	if p.Class < 0 || p.Class >= 4 {
		t.Errorf("class %d out of range", p.Class)
	}
	if p.Model != "test" {
		t.Errorf("model tag %q, want %q", p.Model, "test")
	}
	// Generous bound: the point is that it returned at all, not after 32
	// requests that will never come or an hour's wait.
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("lone request took %v", wall)
	}
}

// TestMaxBatchFlushUnderBurst: a burst that queues up behind a busy worker
// must be served in exactly MaxBatch-sized batches. The worker is pinned on
// a first request until the whole burst is queued, so the batches do not
// depend on when each caller gets scheduled (with a free worker, the first
// caller to arrive rightly runs at once, alone or with whoever has queued).
func TestMaxBatchFlushUnderBurst(t *testing.T) {
	const maxBatch, n = 4, 12
	gate := newGatedProvider(testModel(t, 1, 4, 16))
	b := newTestBatcher(t, Config{Provider: gate, MaxBatch: maxBatch})
	pinned := enqueue(b, n)
	<-gate.first
	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := b.Predict(testPixels(b.SampleLen(), int64(i)))
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = p.BatchSize
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); len(b.queue) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate.release)
			t.Fatalf("only %d of %d requests queued", len(b.queue), n)
		}
	}
	close(gate.release)
	wg.Wait()
	<-pinned.resp
	for i, s := range sizes {
		if s != maxBatch {
			t.Errorf("request %d rode batch of %d, want %d", i, s, maxBatch)
		}
	}
	b.Close() // the last batch's stats land after its replies
	snap := b.Stats()
	if snap.Requests != n+1 || snap.Batches != n/maxBatch+1 {
		t.Errorf("stats: %d requests in %d batches, want %d in %d", snap.Requests, snap.Batches, n+1, n/maxBatch+1)
	}
	if snap.BatchHist[maxBatch] != n/maxBatch {
		t.Errorf("histogram at size %d: %d, want %d", maxBatch, snap.BatchHist[maxBatch], n/maxBatch)
	}
}

// TestOneProcBacklogFillsBatches pins the worker's yield. On one proc, when
// the worker has answered a batch, the callers that will make up the next
// one are runnable but have not run; a worker that took only what was queued
// at that moment would alternate between a batch of one and a batch of the
// rest (an average of 4 here, or 1 with GOMAXPROCS=1 set before start).
// Yielding once lets them all enqueue first. The bar is not 0.9: Gosched
// parks the worker on the global run queue, which the scheduler serves
// ahead of the local one on every 61st schedule, so some batches still run
// short; the average reads 7.1–8.0.
func TestOneProcBacklogFillsBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxBatch, clients, perClient = 8, 8, 50
	b := newTestBatcher(t, Config{MaxBatch: maxBatch})
	px := testPixels(b.SampleLen(), 1)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := b.Predict(px); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.Close() // the last batch's stats land after its replies
	snap := b.Stats()
	if snap.Requests != clients*perClient {
		t.Fatalf("%d requests served, want %d", snap.Requests, clients*perClient)
	}
	if snap.AvgBatch < 0.8*maxBatch {
		t.Errorf("average batch %.2f over %d batches, want >= %.1f (histogram %v)",
			snap.AvgBatch, snap.Batches, 0.8*maxBatch, snap.BatchHist)
	}
}

// gatedProvider blocks the first batch's Current call until released,
// pinning the single worker mid-batch so the test controls what queues up
// behind it. NewBatcher itself calls Current once to read the model
// geometry, so the gate trips on the second call — the first runBatch.
type gatedProvider struct {
	Static
	release chan struct{}
	calls   atomic.Int64
	first   chan struct{} // closed when the first batch reaches Current
}

func newGatedProvider(m *efficientnet.Model) *gatedProvider {
	return &gatedProvider{
		Static:  Static{M: m, Tag: "gated"},
		release: make(chan struct{}),
		first:   make(chan struct{}),
	}
}

func (g *gatedProvider) Current() (*efficientnet.Model, string) {
	if g.calls.Add(1) == 2 {
		close(g.first)
		<-g.release
	}
	return g.Static.Current()
}

// vanishingProvider hands its model to NewBatcher and nil to every batch
// after: a provider whose model went away while the server was up.
type vanishingProvider struct {
	m     *efficientnet.Model
	calls atomic.Int64
}

func (v *vanishingProvider) Current() (*efficientnet.Model, string) {
	if v.calls.Add(1) == 1 {
		return v.m, "boot"
	}
	return nil, ""
}

// TestNilModelAnswersErrNoModel: a batch whose provider has no current model
// answers every request with ErrNoModel, and the workers live on to answer
// later batches the same way (a nil model used to be dereferenced, and the
// panic in the worker goroutine killed the process).
func TestNilModelAnswersErrNoModel(t *testing.T) {
	b := newTestBatcher(t, Config{Provider: &vanishingProvider{m: testModel(t, 1, 4, 16)}, MaxBatch: 4})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Predict(testPixels(b.SampleLen(), int64(i))); !errors.Is(err, ErrNoModel) {
				t.Errorf("request %d: err %v, want ErrNoModel", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// enqueue admits a request directly onto the batcher's queue, bypassing
// Predict's admission so tests can stage exact queue states.
func enqueue(b *Batcher, seed int64) *request {
	r := &request{pixels: testPixels(b.sampleLen, seed), enq: time.Now(), resp: make(chan result, 1)}
	b.queue <- r
	return r
}

// TestCloseWithInFlightRequests: Close must answer every request already
// admitted — the in-flight batch and everything queued behind it — before
// returning, and subsequent Predicts fail fast with ErrClosed.
func TestCloseWithInFlightRequests(t *testing.T) {
	gate := newGatedProvider(testModel(t, 1, 4, 16))
	b, err := NewBatcher(Config{Provider: gate, MaxBatch: 2, MaxWait: time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	reqs := make([]*request, n)
	reqs[0] = enqueue(b, 0)
	<-gate.first // worker is now pinned mid-batch
	for i := 1; i < n; i++ {
		reqs[i] = enqueue(b, int64(i)) // provably admitted before Close
	}
	closed := make(chan error)
	go func() { closed <- b.Close() }()
	// Close must not complete while a batch is still in flight.
	select {
	case <-closed:
		t.Fatal("Close returned with a batch still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, r := range reqs {
		res := <-r.resp
		if res.err != nil {
			t.Errorf("request %d admitted before Close got error: %v", i, res.err)
		}
		if len(res.pred.Logits) != 4 {
			t.Errorf("request %d got %d logits", i, len(res.pred.Logits))
		}
	}
	if _, err := b.Predict(testPixels(b.SampleLen(), 99)); !errors.Is(err, ErrClosed) {
		t.Errorf("Predict after Close: %v, want ErrClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// swapProvider alternates between two models on demand — the model-swap race
// surface without Loader's file I/O.
type swapProvider struct {
	mu   sync.Mutex
	cur  Static
	next Static
}

func (s *swapProvider) Current() (*efficientnet.Model, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.M, s.cur.Tag
}

func (s *swapProvider) swap() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur, s.next = s.next, s.cur
}

// TestPredictDuringModelSwap hammers Predict from several goroutines while
// the provider swaps models underneath — every request must complete with a
// coherent result (logit count, tag naming a real version). Run under -race
// this is the hot-reload safety test.
func TestPredictDuringModelSwap(t *testing.T) {
	sp := &swapProvider{
		cur:  Static{M: testModel(t, 1, 4, 16), Tag: "v1"},
		next: Static{M: testModel(t, 2, 4, 16), Tag: "v2"},
	}
	b, err := NewBatcher(Config{Provider: sp, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sp.swap()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			px := testPixels(b.SampleLen(), int64(g))
			for i := 0; i < 10; i++ {
				p, err := b.Predict(px)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if len(p.Logits) != 4 {
					t.Errorf("goroutine %d iter %d: %d logits", g, i, len(p.Logits))
				}
				if p.Model != "v1" && p.Model != "v2" {
					t.Errorf("goroutine %d iter %d: tag %q", g, i, p.Model)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	swaps.Wait()
}

// TestOverloadSheds: with the worker pinned and the queue full, Predict must
// fail fast with ErrOverloaded instead of blocking, and the shed count must
// surface in stats.
func TestOverloadSheds(t *testing.T) {
	gate := newGatedProvider(testModel(t, 1, 4, 16))
	b, err := NewBatcher(Config{Provider: gate, MaxBatch: 1, Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Stage a provably full pipeline: one request pinned in the worker and
	// the queue filled to QueueCap behind it. Nothing takes from the queue
	// while the worker is pinned, so after the last send it holds exactly
	// QueueCap requests.
	reqs := make([]*request, 3)
	reqs[0] = enqueue(b, 0)
	<-gate.first
	for i := 1; i < 3; i++ {
		reqs[i] = enqueue(b, int64(i))
	}
	if _, err := b.Predict(testPixels(b.SampleLen(), 99)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("Predict with full queue: %v, want ErrOverloaded", err)
	}
	if got := b.Stats().Dropped; got != 1 {
		t.Errorf("dropped %d, want 1", got)
	}
	close(gate.release)
	for i, r := range reqs {
		if res := <-r.resp; res.err != nil {
			t.Errorf("admitted request %d: %v", i, res.err)
		}
	}
	b.Close()
}

func TestPredictRejectsBadInput(t *testing.T) {
	b := newTestBatcher(t, Config{})
	if _, err := b.Predict(make([]float32, 5)); err == nil || !strings.Contains(err.Error(), "pixels") {
		t.Errorf("short input: %v, want pixel-count error", err)
	}
}

func TestNewBatcherValidates(t *testing.T) {
	if _, err := NewBatcher(Config{}); err == nil {
		t.Error("nil provider accepted")
	}
	m := testModel(t, 1, 4, 16)
	for _, cfg := range []Config{
		{Provider: Static{M: m}, MaxBatch: -1},
		{Provider: Static{M: m}, Workers: -2},
		{Provider: Static{M: m}, QueueCap: -1},
	} {
		if _, err := NewBatcher(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewBatcher(Config{Provider: Static{}}); err == nil {
		t.Error("provider with nil model accepted")
	}
}

// TestBatchedMatchesSerial: a request must get the same logits whether it
// rides a coalesced batch or a batch of one — batching is a throughput
// optimization, not a semantic change.
func TestBatchedMatchesSerial(t *testing.T) {
	m := testModel(t, 3, 4, 16)
	const n = 4
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = testPixels(3*16*16, int64(i))
	}

	serial := newTestBatcher(t, Config{Provider: Static{M: m, Tag: "m"}, MaxBatch: 1})
	want := make([][]float32, n)
	for i, px := range inputs {
		p, err := serial.Predict(px)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Logits
	}

	batched := newTestBatcher(t, Config{Provider: Static{M: m, Tag: "m"}, MaxBatch: n})
	var wg sync.WaitGroup
	got := make([][]float32, n)
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := batched.Predict(inputs[i])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p.Logits
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d logit %d: batched %v != serial %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestJSONLSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sink.Label = "serve-test"
	b := newTestBatcher(t, Config{MaxBatch: 2, Sinks: []Sink{sink}})
	for i := 0; i < 3; i++ {
		if _, err := b.Predict(testPixels(b.SampleLen(), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3 (one per batch)", len(lines))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec["kind"] != "serve_batch" {
			t.Errorf("kind %v, want serve_batch", rec["kind"])
		}
		if rec["run"] != "serve-test" {
			t.Errorf("run %v, want serve-test", rec["run"])
		}
		if rec["size"].(float64) < 1 {
			t.Errorf("size %v, want >= 1", rec["size"])
		}
		for _, key := range []string{"queue_depth", "infer_ms", "model", "lat_min_ms", "lat_max_ms", "lat_mean_ms"} {
			if _, ok := rec[key]; !ok {
				t.Errorf("line missing %q: %s", key, line)
			}
		}
	}
}

func TestStatsPercentiles(t *testing.T) {
	s := NewStats(8)
	// 100 latencies 1ms..100ms in one record: nearest-rank percentiles are
	// exactly the 50th, 95th and 99th values.
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	s.Record(BatchRecord{Size: 8, QueueDepth: 3, Infer: time.Millisecond, Latencies: lats})
	snap := s.Snapshot()
	if snap.P50MS != 50 || snap.P95MS != 95 || snap.P99MS != 99 {
		t.Errorf("percentiles p50=%v p95=%v p99=%v, want 50/95/99", snap.P50MS, snap.P95MS, snap.P99MS)
	}
	if snap.Requests != 8 || snap.Batches != 1 || snap.AvgBatch != 8 {
		t.Errorf("counts: %+v", snap)
	}
	if snap.AvgQueueDepth != 3 {
		t.Errorf("avg queue depth %v, want 3", snap.AvgQueueDepth)
	}
}

func TestStatsLatencyWindowBounded(t *testing.T) {
	s := NewStats(1)
	// Flood with 2× the window of high latencies, then the window of low
	// ones: percentiles must reflect only the recent window.
	big := make([]time.Duration, maxLatencySamples*2)
	for i := range big {
		big[i] = time.Second
	}
	s.Record(BatchRecord{Size: 1, Latencies: big})
	small := make([]time.Duration, maxLatencySamples)
	for i := range small {
		small[i] = time.Millisecond
	}
	s.Record(BatchRecord{Size: 1, Latencies: small})
	if snap := s.Snapshot(); snap.P99MS != 1 {
		t.Errorf("p99 %vms, want 1ms (old samples must age out)", snap.P99MS)
	}
}
