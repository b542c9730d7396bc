// Command minisweep runs mini-scale real-training grids over optimizers,
// global batch sizes and BN group sizes, emitting a CSV of final train and
// validation accuracies plus each cell's telemetry columns (training img/s
// and comm-overlap efficiency): the real-training counterpart of the
// simulated Table 2 that podbench prints. Each cell of the grid is one
// train.Session run with telemetry attached; -telemetry-jsonl additionally
// streams every cell's per-step records, labelled per cell, into one file.
//
//	minisweep -optimizers lars,rmsprop -batches 64,256,1024 -epochs 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"effnetscale/internal/data"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/train"
)

func main() {
	var (
		model      = flag.String("model", "pico", "model variant")
		world      = flag.Int("replicas", 4, "replica count")
		optimizers = flag.String("optimizers", "rmsprop,lars", "comma-separated optimizer list")
		batches    = flag.String("batches", "64,256,1024", "comma-separated global batch sizes")
		bnGroups   = flag.String("bn-groups", "", "comma-separated BN group sizes (default: world)")
		shards     = flag.String("model-shards", "1", "comma-separated model-parallel shard counts: each cell lays replicas×shards ranks out as a replicas×shards mesh (1 = pure data parallelism)")
		epochs     = flag.Int("epochs", 5, "epochs per run")
		classes    = flag.Int("classes", 8, "SynthImageNet classes")
		trainSize  = flag.Int("train-size", 4096, "training images")
		resolution = flag.Int("resolution", 16, "image resolution")
		seed       = flag.Int64("seed", 7, "seed")
		larsLR     = flag.Float64("lars-lr", 10, "LARS peak global LR (roughly batch-independent, like the paper)")
		rmsLR      = flag.Float64("rmsprop-lr-per-256", 0.1, "RMSProp LR per 256 samples (linear scaling rule)")
		telJSONL   = flag.String("telemetry-jsonl", "", "append every cell's per-step telemetry records to this JSONL file (each line carries its cell's run label)")
	)
	flag.Parse()

	var telFile io.Writer
	if *telJSONL != "" {
		f, err := os.Create(*telJSONL)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minisweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		telFile = f
	}

	ds := data.New(data.Config{
		NumClasses: *classes,
		TrainSize:  *trainSize,
		ValSize:    *trainSize / 4,
		Resolution: *resolution,
		NoiseStd:   0.25,
		Seed:       *seed,
	})

	groupList := []int{*world}
	if *bnGroups != "" {
		groupList = parseInts(*bnGroups)
	}

	fmt.Println("optimizer,global_batch,bn_group,model_shards,steps,train_acc,val_acc,img_per_s,overlap_eff,reduce_tail_ms")
	for _, opt := range strings.Split(*optimizers, ",") {
		for _, batch := range parseInts(*batches) {
			for _, group := range groupList {
				for _, ms := range parseInts(*shards) {
					cell, err := runOne(ds, *model, opt, *world, ms, batch, group, *epochs, *seed, *larsLR, *rmsLR, telFile)
					if err != nil {
						fmt.Fprintf(os.Stderr, "minisweep: %s batch %d shards %d: %v\n", opt, batch, ms, err)
						os.Exit(1)
					}
					fmt.Printf("%s,%d,%d,%d,%d,%.4f,%.4f,%.1f,%.4f,%.3f\n", opt, batch, group, ms,
						cell.steps, cell.trainAcc, cell.valAcc, cell.imgPerSec, cell.overlap, cell.reduceTailMS)
				}
			}
		}
	}
}

func parseInts(csv string) []int {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "minisweep: bad integer %q\n", s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// sweepSchedule is each optimizer's house schedule: the linear scaling rule
// for RMSProp, a roughly batch-independent global LR for LARS (mirroring
// the paper's LARS rows, whose per-256 LR halves as batch doubles).
func sweepSchedule(opt string, epochs int, larsLR, rmsLR float64) train.Option {
	switch opt {
	case "rmsprop":
		return train.WithLinearScaling(rmsLR, 0.5, train.ExponentialDecay)
	case "lars":
		return train.WithSchedule(schedule.Warmup{Epochs: 1, Inner: schedule.Polynomial{Peak: larsLR, End: 0, TotalEpochs: float64(epochs), Power: 2}})
	default:
		return train.WithSchedule(schedule.Warmup{Epochs: 0.5, Inner: schedule.Constant(0.1)})
	}
}

// cellResult carries one sweep cell's accuracy and telemetry columns.
type cellResult struct {
	trainAcc, valAcc float64
	steps            int
	imgPerSec        float64
	overlap          float64
	reduceTailMS     float64
}

func runOne(ds *data.Dataset, model, opt string, world, modelShards, globalBatch, bnGroup, epochs int, seed int64, larsLR, rmsLR float64, telFile io.Writer) (cell cellResult, retErr error) {
	perBatch := globalBatch / world
	if perBatch < 1 {
		return cellResult{}, fmt.Errorf("global batch %d too small for %d replicas", globalBatch, world)
	}
	tail := train.NewTrailingAccuracy(4)
	// Every cell runs with telemetry: the summary supplies the throughput
	// and overlap columns; the optional JSONL sink streams per-step records
	// labelled with the cell's coordinates into one shared file.
	var sinks []telemetry.Sink
	if telFile != nil {
		sink := telemetry.NewJSONL(telFile)
		sink.Label = fmt.Sprintf("%s_b%d_bn%d_ms%d", opt, globalBatch, bnGroup, modelShards)
		sinks = append(sinks, sink)
	}
	sess, err := train.New(
		train.WithModel(model),
		// world data replicas × modelShards model shards: the global batch
		// stays world×perBatch, the extra ranks shard parameters, and the
		// img/s / overlap columns report each mesh shape's cost.
		train.WithMesh(world, modelShards),
		train.WithPerReplicaBatch(perBatch),
		train.WithDataset(ds),
		train.WithOptimizer(opt, 1e-5),
		sweepSchedule(opt, epochs, larsLR, rmsLR),
		train.WithBNGroup(bnGroup),
		train.WithLabelSmoothing(0.1),
		train.WithSeed(seed),
		train.WithBNMomentum(0.9),
		train.WithEpochs(epochs),
		train.WithEvalEvery(1<<30), // evaluate once, at the end
		train.WithEvalSamples(64),
		train.WithCallbacks(tail),
		train.WithTelemetry(sinks...),
	)
	if err != nil {
		return cellResult{}, err
	}
	// Each sweep point owns world input-pipeline goroutines and (optionally)
	// a labelled JSONL sink into the shared telemetry file; Close releases
	// the former and flushes the latter, and a flush failure fails the cell.
	defer func() {
		if cerr := sess.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	res, err := sess.Run()
	if err != nil {
		return cellResult{}, err
	}
	cell = cellResult{
		trainAcc: tail.Mean(),
		valAcc:   res.PeakAccuracy,
		steps:    res.StepsRun,
	}
	if res.Telemetry != nil {
		cell.imgPerSec = res.Telemetry.ImgsPerSec()
		cell.overlap = res.Telemetry.OverlapEfficiency()
		// Exposed reduce time per step: what the grad-ready overlap failed to
		// hide inside backward (ROADMAP item 1's before/after metric).
		if res.StepsRun > 0 {
			cell.reduceTailMS = res.Telemetry.Phases[telemetry.PhaseReduceTail].Seconds() * 1e3 / float64(res.StepsRun)
		}
	}
	return cell, nil
}
