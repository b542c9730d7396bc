// Command effnetserve serves predictions from a trained EfficientNet
// checkpoint over HTTP, with dynamic request batching — the serving-side
// dual of the paper's large-batch training insight: concurrent requests
// coalesce into one batched tape-free forward, amortizing per-forward fixed
// costs (and, on multi-core hosts, engaging the batch-parallel convolution
// kernels).
//
// Boot from one snapshot file or from a snapshot directory; the latter is
// watched, and newer snapshots hot-swap in without dropping in-flight
// requests:
//
//	effnetserve -snapshot-dir runs/exp1/snapshots -addr :8080
//
// Endpoints: POST /predict ({"pixels": [...]} flattened 3×res×res NCHW),
// GET /healthz, GET /stats (batch-size histogram, queue depth, p50/p95/p99
// latency from the serve telemetry).
//
// The load-generator mode benchmarks batching instead of asserting it:
//
//	effnetserve -loadgen -duration 5s -clients 32
//
// drives saturating synthetic traffic through a batch-size-1 baseline and
// the batched configuration, printing the latency-percentile table for each
// and the measured speedup.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/serve"
)

func main() {
	var (
		checkpointPath = flag.String("checkpoint", "", "snapshot file to serve, not watched (exclusive with -snapshot-dir)")
		snapshotDir    = flag.String("snapshot-dir", "", "snapshot directory to serve; watched for hot reload")
		poll           = flag.Duration("poll", 2*time.Second, "snapshot-dir polling interval for hot reload (<0 disables)")
		addr           = flag.String("addr", ":8080", "HTTP listen address")
		maxBatch       = flag.Int("max-batch", 32, "max requests coalesced into one forward")
		maxWait        = flag.Duration("max-wait", 2*time.Millisecond, "max time a request waits for its batch to fill")
		workers        = flag.Int("workers", 1, "concurrent inference workers")
		queueCap       = flag.Int("queue-cap", 0, "admission queue bound before load shedding (0 = 4×max-batch)")
		useBF16        = flag.Bool("bf16", false, "run inference with bf16 convolutions (emulated; fp32 is faster off-TPU)")
		jsonlPath      = flag.String("telemetry-jsonl", "", "stream per-batch serve telemetry (kind serve_batch) to this JSONL file")
		runLabel       = flag.String("run", "", "label stamped into telemetry lines as \"run\"")

		loadgen  = flag.Bool("loadgen", false, "benchmark mode: drive synthetic traffic, print the latency table, exit")
		duration = flag.Duration("duration", 3*time.Second, "loadgen: measurement window per configuration")
		clients  = flag.Int("clients", 0, "loadgen: concurrent closed-loop clients (0 = 2×max-batch, so batches can fill at saturation)")
		qps      = flag.Float64("qps", 0, "loadgen: target request rate (0 = unpaced, saturate)")

		model      = flag.String("model", "pico", "loadgen without a checkpoint: model variant to serve with random weights")
		classes    = flag.Int("classes", 8, "loadgen without a checkpoint: class count")
		resolution = flag.Int("resolution", 32, "loadgen without a checkpoint: image resolution")
		seed       = flag.Int64("seed", 42, "loadgen: synthetic input seed")
	)
	flag.Parse()

	precision := bf16.FP32Policy
	if *useBF16 {
		precision = bf16.DefaultPolicy
	}

	provider, cleanup, err := buildProvider(*checkpointPath, *snapshotDir, *poll, *model, *classes, *resolution, *loadgen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "effnetserve:", err)
		os.Exit(2)
	}
	defer cleanup()

	var sinks []serve.Sink
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "effnetserve:", err)
			os.Exit(2)
		}
		defer f.Close()
		sink := serve.NewJSONL(f)
		sink.Label = *runLabel
		sinks = append(sinks, sink)
	}

	cfg := serve.Config{
		Provider:  provider,
		MaxBatch:  *maxBatch,
		MaxWait:   *maxWait,
		Workers:   *workers,
		QueueCap:  *queueCap,
		Precision: precision,
		Sinks:     sinks,
	}

	if *loadgen {
		if err := runLoadgen(cfg, *duration, *clients, *qps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "effnetserve:", err)
			os.Exit(1)
		}
		return
	}
	if err := runServer(cfg, *addr, provider); err != nil {
		fmt.Fprintln(os.Stderr, "effnetserve:", err)
		os.Exit(1)
	}
}

// buildProvider resolves the weights source: a checkpoint file, a watched
// snapshot directory, or (loadgen only) a randomly initialized model so the
// batching benchmark needs no training run first.
func buildProvider(checkpointPath, snapshotDir string, poll time.Duration, model string, classes, resolution int, loadgen bool) (serve.ModelProvider, func(), error) {
	if checkpointPath != "" && snapshotDir != "" {
		return nil, nil, errors.New("set only one of -checkpoint and -snapshot-dir")
	}
	if checkpointPath == "" && snapshotDir == "" {
		if !loadgen {
			return nil, nil, errors.New("need -checkpoint or -snapshot-dir (or -loadgen for a synthetic benchmark)")
		}
		cfg, ok := efficientnet.ConfigByName(model, classes)
		if !ok {
			return nil, nil, fmt.Errorf("unknown model %q", model)
		}
		cfg.Resolution = resolution
		m := efficientnet.New(rand.New(rand.NewSource(1)), cfg)
		return serve.Static{M: m, Tag: model + "-randinit"}, func() {}, nil
	}
	l, err := serve.NewLoader(serve.LoaderConfig{
		WeightsPath: checkpointPath,
		SnapshotDir: snapshotDir,
		Poll:        poll,
		OnSwap:      func(tag string) { fmt.Printf("effnetserve: hot-reloaded %s\n", tag) },
		OnError:     func(err error) { fmt.Fprintln(os.Stderr, "effnetserve: reload:", err) },
	})
	if err != nil {
		return nil, nil, err
	}
	return l, l.Close, nil
}

// --- HTTP server -------------------------------------------------------------

type predictRequest struct {
	Pixels []float32 `json:"pixels"`
}

type predictResponse struct {
	Class     int       `json:"class"`
	Logits    []float32 `json:"logits"`
	Model     string    `json:"model"`
	BatchSize int       `json:"batch_size"`
	LatencyMS float64   `json:"latency_ms"`
}

func runServer(cfg serve.Config, addr string, provider serve.ModelProvider) error {
	b, err := serve.NewBatcher(cfg)
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		var req predictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		p, err := b.Predict(req.Pixels)
		switch {
		case errors.Is(err, serve.ErrOverloaded):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case errors.Is(err, serve.ErrClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, predictResponse{
			Class:     p.Class,
			Logits:    p.Logits,
			Model:     p.Model,
			BatchSize: p.BatchSize,
			LatencyMS: float64(p.Latency) / 1e6,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, tag := provider.Current()
		writeJSON(w, map[string]any{"status": "ok", "model": tag})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		_, tag := provider.Current()
		stats := struct {
			serve.StatsSnapshot
			Model   string `json:"model"`
			Reloads int64  `json:"reloads"`
		}{StatsSnapshot: b.Stats(), Model: tag}
		if l, ok := provider.(*serve.Loader); ok {
			stats.Reloads = l.Reloads()
		}
		writeJSON(w, stats)
	})

	srv := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("effnetserve: serving res %d, %d classes on %s (max-batch %d, max-wait %v)\n",
			b.Resolution(), b.Classes(), addr, cfg.MaxBatch, cfg.MaxWait)
		errc <- srv.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		b.Close()
		return err
	case s := <-sig:
		fmt.Printf("effnetserve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if cerr := b.Close(); err == nil {
			err = cerr
		}
		return err
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// --- Load generator ----------------------------------------------------------

// genResult is one configuration's measurement.
type genResult struct {
	name   string
	served int64
	window time.Duration
	stats  serve.StatsSnapshot
}

func (g genResult) throughput() float64 { return float64(g.served) / g.window.Seconds() }

// runLoadgen measures a batch-size-1 baseline and the batched configuration
// under identical traffic, printing the latency-percentile table from the
// serve telemetry and the measured speedup.
func runLoadgen(cfg serve.Config, window time.Duration, clients int, qps float64, seed int64) error {
	if clients == 0 {
		// Closed-loop clients bound the achievable batch size: with fewer
		// clients than MaxBatch a batch can never fill and every flush waits
		// out the MaxWait deadline. Default to enough clients to saturate.
		clients = 2 * cfg.MaxBatch
		if clients < 32 {
			clients = 32
		}
	}
	if clients < 1 {
		return fmt.Errorf("loadgen needs at least one client, got %d", clients)
	}
	baseline := cfg
	baseline.MaxBatch = 1
	baseline.QueueCap = 0 // re-derive from MaxBatch
	results := make([]genResult, 0, 2)
	for _, c := range []struct {
		name string
		cfg  serve.Config
	}{
		{"batch=1", baseline},
		{fmt.Sprintf("batch=%d", cfg.MaxBatch), cfg},
	} {
		r, err := drive(c.name, c.cfg, window, clients, qps, seed)
		if err != nil {
			return err
		}
		results = append(results, r)
	}

	fmt.Printf("\n%-10s %10s %10s %9s %9s %9s %10s %8s\n",
		"config", "img/s", "requests", "p50 ms", "p95 ms", "p99 ms", "avg batch", "shed")
	for _, r := range results {
		fmt.Printf("%-10s %10.1f %10d %9.2f %9.2f %9.2f %10.2f %8d\n",
			r.name, r.throughput(), r.served,
			r.stats.P50MS, r.stats.P95MS, r.stats.P99MS, r.stats.AvgBatch, r.stats.Dropped)
	}
	speedup := results[1].throughput() / results[0].throughput()
	fmt.Printf("\nbatched throughput %.2fx batch-size-1 (%d closed-loop clients", speedup, clients)
	if qps > 0 {
		fmt.Printf(", paced at %.0f qps", qps)
	}
	fmt.Printf(")\n")
	fmt.Println("note: the batching win scales with cores — tensor.Conv2D parallelizes over the batch")
	fmt.Println("dimension, so a coalesced forward engages every core where batch-1 forwards cannot.")
	return nil
}

// drive runs one configuration: clients issue requests closed-loop (optionally
// paced to a global QPS target) for the window, after a short warmup.
func drive(name string, cfg serve.Config, window time.Duration, clients int, qps float64, seed int64) (genResult, error) {
	b, err := serve.NewBatcher(cfg)
	if err != nil {
		return genResult{}, err
	}
	defer b.Close()

	inputs := make([][]float32, clients)
	rng := rand.New(rand.NewSource(seed))
	for i := range inputs {
		px := make([]float32, b.SampleLen())
		for j := range px {
			px[j] = rng.Float32()
		}
		inputs[i] = px
	}

	// Pacing: a token bucket fed at the QPS target, shared by all clients.
	// Without -qps the bucket is nil and clients run flat out (saturation).
	var tokens chan struct{}
	pacerStop := make(chan struct{})
	if qps > 0 {
		tokens = make(chan struct{}, clients)
		interval := time.Duration(float64(time.Second) / qps)
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-pacerStop:
					return
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					default: // clients saturated; drop the token, not the pace
					}
				}
			}
		}()
	}

	warmup := window / 10
	if warmup > time.Second {
		warmup = time.Second
	}
	var started atomic.Bool // excludes warmup traffic from the count
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tokens != nil {
					select {
					case <-tokens:
					case <-stop:
						return
					}
				}
				_, err := b.Predict(inputs[c])
				switch {
				case err == nil:
					if started.Load() {
						served.Add(1)
					}
				case errors.Is(err, serve.ErrOverloaded):
					// Saturation is the point; back off briefly.
					time.Sleep(100 * time.Microsecond)
				default:
					return
				}
			}
		}(c)
	}
	time.Sleep(warmup)
	started.Store(true)
	t0 := time.Now()
	time.Sleep(window)
	measured := time.Since(t0)
	close(stop)
	close(pacerStop)
	wg.Wait()
	stats := b.Stats()
	fmt.Printf("%s: %d requests in %v\n", name, served.Load(), measured.Round(time.Millisecond))
	return genResult{name: name, served: served.Load(), window: measured, stats: stats}, nil
}
