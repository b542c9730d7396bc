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
// latency from the serve telemetry). The load generator that measures the
// server is the serve_rates workload of the repository benchmark (bench/).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/serve"
)

func main() {
	var (
		checkpointPath = flag.String("checkpoint", "", "snapshot file to serve, not watched (exclusive with -snapshot-dir)")
		snapshotDir    = flag.String("snapshot-dir", "", "snapshot directory to serve; watched for hot reload")
		poll           = flag.Duration("poll", 2*time.Second, "snapshot-dir polling interval for hot reload (<0 disables)")
		addr           = flag.String("addr", ":8080", "HTTP listen address")
		maxBatch       = flag.Int("max-batch", 32, "max queued requests coalesced into one forward")
		workers        = flag.Int("workers", 1, "concurrent inference workers")
		queueCap       = flag.Int("queue-cap", 0, "admission queue bound before load shedding (0 = 4×max-batch)")
		useBF16        = flag.Bool("bf16", false, "run inference with bf16 convolutions (emulated; fp32 is faster off-TPU)")
		jsonlPath      = flag.String("telemetry-jsonl", "", "stream per-batch serve telemetry (kind serve_batch) to this JSONL file")
		runLabel       = flag.String("run", "", "label stamped into telemetry lines as \"run\"")
	)
	flag.Parse()

	precision := bf16.FP32Policy
	if *useBF16 {
		precision = bf16.DefaultPolicy
	}

	loader, err := newLoader(*checkpointPath, *snapshotDir, *poll)
	if err != nil {
		fmt.Fprintln(os.Stderr, "effnetserve:", err)
		os.Exit(2)
	}
	defer loader.Close()

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
		Provider:  loader,
		MaxBatch:  *maxBatch,
		Workers:   *workers,
		QueueCap:  *queueCap,
		Precision: precision,
		Sinks:     sinks,
	}
	if err := runServer(cfg, *addr, loader); err != nil {
		fmt.Fprintln(os.Stderr, "effnetserve:", err)
		os.Exit(1)
	}
}

// newLoader resolves the weights source: a checkpoint file or a watched
// snapshot directory.
func newLoader(checkpointPath, snapshotDir string, poll time.Duration) (*serve.Loader, error) {
	if checkpointPath != "" && snapshotDir != "" {
		return nil, errors.New("set only one of -checkpoint and -snapshot-dir")
	}
	if checkpointPath == "" && snapshotDir == "" {
		return nil, errors.New("need -checkpoint or -snapshot-dir")
	}
	return serve.NewLoader(serve.LoaderConfig{
		WeightsPath: checkpointPath,
		SnapshotDir: snapshotDir,
		Poll:        poll,
		OnSwap:      func(tag string) { fmt.Printf("effnetserve: hot-reloaded %s\n", tag) },
		OnError:     func(err error) { fmt.Fprintln(os.Stderr, "effnetserve: reload:", err) },
	})
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

func runServer(cfg serve.Config, addr string, loader *serve.Loader) error {
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
		_, tag := loader.Current()
		writeJSON(w, map[string]any{"status": "ok", "model": tag})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		_, tag := loader.Current()
		writeJSON(w, struct {
			serve.StatsSnapshot
			Model   string `json:"model"`
			Reloads int64  `json:"reloads"`
		}{StatsSnapshot: b.Stats(), Model: tag, Reloads: loader.Reloads()})
	})

	srv := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("effnetserve: serving res %d, %d classes on %s (max-batch %d)\n",
			b.Resolution(), b.Classes(), addr, cfg.MaxBatch)
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
