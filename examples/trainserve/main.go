// Trainserve: close the train-to-serve loop end to end — train a mini
// recipe with periodic training-state snapshots, boot the batched inference
// server from the snapshot directory, serve predictions, then train further
// and watch the server hot-reload the newer snapshot without dropping
// in-flight requests.
//
// This is the serving-side dual of the paper's large-batch insight: the
// server coalesces concurrent requests into one tape-free forward
// (serve.Batcher), and the Loader's atomic model swap means a production
// server follows a live training run's snapshots with zero downtime.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"effnetscale/internal/data"
	"effnetscale/internal/serve"
	"effnetscale/internal/train"
)

// trainInto runs (or resumes) the mini recipe with periodic snapshots into
// dir. A resumed run must keep the configured length — it shapes the LR
// schedule — so the first phase pauses partway with StopAfterStep and the
// second resumes the same 4-epoch run to completion.
func trainInto(dir string, label string, extra ...train.Option) {
	opts := []train.Option{
		train.WithModel("pico"),
		train.WithWorld(2),
		train.WithPerReplicaBatch(4),
		train.WithData(data.MiniConfig(4, 64, 16)),
		train.WithOptimizer("lars", 1e-5),
		train.WithLinearScaling(20, 1, train.PolynomialDecay),
		train.WithSeed(11),
		train.WithEpochs(4),
		train.WithEvalSamples(8),
		train.WithSnapshotDir(dir),
		train.WithSnapshotEvery(4),
	}
	sess, err := train.New(append(opts, extra...)...)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d steps, peak top-1 %.4f\n", label, res.StepsRun, res.PeakAccuracy)
}

func main() {
	dir, err := os.MkdirTemp("", "effnet-trainserve-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Phase 1: train the first half of the run, snapshotting as we go.
	trainInto(dir, "initial training", train.WithCallbacks(train.StopAfterStep(16)))

	// Phase 2: boot the server from the snapshot directory. The loader
	// derives the architecture from the snapshot itself and keeps watching
	// the directory for newer ones.
	swapped := make(chan string, 1)
	loader, err := serve.NewLoader(serve.LoaderConfig{
		SnapshotDir: dir,
		Poll:        50 * time.Millisecond,
		OnSwap: func(tag string) {
			select {
			case swapped <- tag: // continued training reloads repeatedly; one signal is enough
			default:
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer loader.Close()
	batcher, err := serve.NewBatcher(serve.Config{Provider: loader, MaxBatch: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer batcher.Close()

	_, tag := loader.Current()
	fmt.Printf("serving: booted from %s (res %d, %d classes)\n", tag, batcher.Resolution(), batcher.Classes())

	predict := func() serve.Prediction {
		px := make([]float32, batcher.SampleLen()) // a zero image; any pixels work
		p, err := batcher.Predict(px)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	p := predict()
	fmt.Printf("serving: class %d from %s (batch %d)\n", p.Class, p.Model, p.BatchSize)

	// Phase 3: train further while the server keeps answering. The loop
	// below hammers Predict throughout the training run and the hot swap;
	// every request must succeed — in-flight batches finish on the weights
	// they captured, later ones see the new snapshot.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	served := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				predict()
				served++
			}
		}
	}()

	trainInto(dir, "continued training", train.WithResume(dir)) // writes newer snapshots

	select {
	case tag := <-swapped:
		fmt.Printf("serving: hot-reloaded %s after %d reload(s)\n", tag, loader.Reloads())
	case <-time.After(10 * time.Second):
		log.Fatal("hot reload never happened")
	}
	close(stop)
	wg.Wait()

	p = predict()
	fmt.Printf("serving: class %d now from %s; %d requests served across the swap, none dropped\n",
		p.Class, p.Model, served)
}
