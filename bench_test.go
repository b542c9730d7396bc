// Package effnetscale's root benchmark harness regenerates every table and
// figure of the paper's evaluation section as Go benchmarks, plus kernel and
// ablation benches for the design choices docs/architecture.md describes.
//
// Artifact map:
//
//	BenchmarkTable1/*   — Table 1 rows (throughput, all-reduce %) via podsim
//	BenchmarkTable2/*   — Table 2 rows (peak top-1) via the convergence model
//	BenchmarkFigure1/*  — Figure 1 points (minutes to peak accuracy)
//	BenchmarkEvalLoop/* — §3.3 ablation: distributed vs Estimator eval
//	BenchmarkDistBN/*   — §3.4 ablation: BN group size, real engine steps
//	BenchmarkBF16/*     — §3.5 ablation: bf16 vs fp32 convolutions
//	BenchmarkKernel/*   — tensor/collective microbenchmarks
//	BenchmarkMiniStep/* — real distributed training step at mini scale
//
// Custom metrics carry the paper's units (img/ms, pct, top1, minutes) so
// `go test -bench . -benchmem` prints the same quantities the tables report.
package effnetscale

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/metrics"
	"effnetscale/internal/nn"
	"effnetscale/internal/podsim"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/serve"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/tensor"
	"effnetscale/internal/topology"
	"effnetscale/internal/train"
)

// --- Table 1 -----------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for _, c := range podsim.Table1Configs() {
		c := c
		b.Run(fmt.Sprintf("%s_%dcores_batch%d", c.Model, c.Cores, c.Batch), func(b *testing.B) {
			var row podsim.StepBreakdown
			for i := 0; i < b.N; i++ {
				var err error
				row, err = podsim.ModelStep(c.Model, c.Cores, c.Batch, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.ThroughputImgPerMs(), "img/ms")
			b.ReportMetric(row.AllReducePct(), "allreduce-pct")
			b.ReportMetric(row.StepSeconds()*1000, "step-ms")
		})
	}
}

// --- Table 2 -----------------------------------------------------------------

func BenchmarkTable2(b *testing.B) {
	for i, row := range podsim.Table2Configs() {
		row := row
		paper := podsim.PaperTable2[i]
		b.Run(fmt.Sprintf("%s_%s_batch%d", row.Model, row.Optimizer, row.GlobalBatch), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				var err error
				acc, err = podsim.PeakAccuracy(podsim.TrainConfig{
					Model: row.Model, Optimizer: row.Optimizer, GlobalBatch: row.GlobalBatch,
					LRPer256: row.LRPer256, Decay: row.Decay, WarmupEpochs: row.WarmupEpochs, Epochs: 350,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "top1")
			b.ReportMetric(paper, "paper-top1")
		})
	}
}

// --- Figure 1 ----------------------------------------------------------------

func BenchmarkFigure1(b *testing.B) {
	for _, c := range podsim.Figure1Configs() {
		c := c
		b.Run(fmt.Sprintf("%s_%dcores_batch%d", c.Cfg.Model, c.Cores, c.Cfg.GlobalBatch), func(b *testing.B) {
			var pt podsim.Fig1Point
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = podsim.TimeToPeak(c.Cfg, c.Cores, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.MinutesToPeak, "min-to-peak")
			b.ReportMetric(pt.PeakAcc, "top1")
		})
	}
}

// --- §3.3 ablation: evaluation loop -------------------------------------------

func newBenchEngine(b *testing.B, world, perBatch, bnGroup int) *replica.Engine {
	b.Helper()
	ds := data.New(data.MiniConfig(4, 512, 16))
	eng, err := replica.New(replica.Config{
		World:               world,
		PerReplicaBatch:     perBatch,
		Model:               "pico",
		Dataset:             ds,
		OptimizerName:       "sgd",
		Schedule:            schedule.Constant(0.05),
		BNGroupSize:         bnGroup,
		Precision:           bf16.FP32Policy,
		Seed:                1,
		DropoutOverride:     0,
		DropConnectOverride: 0,
		NoAugment:           true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	return eng
}

func BenchmarkEvalLoop(b *testing.B) {
	for _, strategy := range []train.EvalStrategy{train.Distributed{}, train.Estimator{}} {
		strategy := strategy
		b.Run(strategy.Name(), func(b *testing.B) {
			sess, err := train.New(
				train.WithModel("pico"),
				train.WithWorld(4),
				train.WithPerReplicaBatch(4),
				train.WithData(data.MiniConfig(4, 512, 16)),
				train.WithOptimizer("sgd", 0),
				train.WithSchedule(schedule.Constant(0.05)),
				train.WithPrecision(bf16.FP32Policy),
				train.WithSeed(1),
				train.WithoutAugmentation(),
				train.WithEvalEvery(1<<30), // evaluate once, at the end
				train.WithEvalSamples(32),
				train.WithEvalStrategy(strategy),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var serial int
			for i := 0; i < b.N; i++ {
				res, err := sess.Run()
				if err != nil {
					b.Fatal(err)
				}
				serial = res.EvalSerialSamples
			}
			b.ReportMetric(float64(serial), "serial-eval-samples")
		})
	}
}

// --- §3.4 ablation: distributed batch norm -------------------------------------

func BenchmarkDistBN(b *testing.B) {
	for _, group := range []int{1, 2, 4, 8} {
		group := group
		b.Run(fmt.Sprintf("group%d", group), func(b *testing.B) {
			eng := newBenchEngine(b, 8, 2, group)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
	// Modelled pod-scale BN cost, 1-D vs 2-D grouping.
	b.Run("podscale_model", func(b *testing.B) {
		var withBN, withoutBN podsim.StepBreakdown
		for i := 0; i < b.N; i++ {
			var err error
			withBN, err = podsim.ModelStep("b2", 1024, 32768, 64)
			if err != nil {
				b.Fatal(err)
			}
			withoutBN, err = podsim.ModelStep("b2", 1024, 32768, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(withBN.BNSeconds*1e6, "bn-us-per-step")
		b.ReportMetric(100*(withBN.StepSeconds()-withoutBN.StepSeconds())/withoutBN.StepSeconds(), "bn-overhead-pct")
	})
}

// --- §3.5 ablation: mixed precision --------------------------------------------

func BenchmarkBF16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 4, 8, 16, 16)
	w := tensor.Randn(rng, 0.2, 16, 8, 3, 3)
	spec := tensor.ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b.Run("conv_fp32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.Conv2D(x, w, spec)
		}
	})
	b.Run("conv_bf16_rounded", func(b *testing.B) {
		xr := tensor.New(x.Shape()...)
		wr := tensor.New(w.Shape()...)
		for i := 0; i < b.N; i++ {
			bf16.RoundSlice(xr.Data(), x.Data())
			bf16.RoundSlice(wr.Data(), w.Data())
			tensor.Conv2D(xr, wr, spec)
		}
	})
	b.Run("round_slice_1M", func(b *testing.B) {
		src := make([]float32, 1<<20)
		dst := make([]float32, 1<<20)
		for i := range src {
			src[i] = rng.Float32()
		}
		b.SetBytes(4 << 20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bf16.RoundSlice(dst, src)
		}
	})
}

// --- Kernels -------------------------------------------------------------------

func BenchmarkKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	b.Run("matmul_128", func(b *testing.B) {
		x := tensor.Randn(rng, 1, 128, 128)
		y := tensor.Randn(rng, 1, 128, 128)
		b.SetBytes(3 * 128 * 128 * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMul(x, y)
		}
	})
	b.Run("conv2d_32x32", func(b *testing.B) {
		x := tensor.Randn(rng, 1, 8, 16, 32, 32)
		w := tensor.Randn(rng, 0.2, 32, 16, 3, 3)
		spec := tensor.ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.Conv2D(x, w, spec)
		}
	})
	b.Run("depthwise_32x32", func(b *testing.B) {
		x := tensor.Randn(rng, 1, 8, 32, 32, 32)
		w := tensor.Randn(rng, 0.2, 32, 1, 3, 3)
		spec := tensor.ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.DepthwiseConv2D(x, w, spec)
		}
	})
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("ring_allreduce_%dranks_1M", n), func(b *testing.B) {
			bufs := make([][]float32, n)
			for r := range bufs {
				bufs[r] = make([]float32, 1<<20/4)
			}
			colls, err := comm.RingProvider().Connect(n)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(1 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCollective(colls, func(c comm.Collective) { c.AllReduce(bufs[c.Rank()]) })
			}
		})
	}
}

// runCollective drives one collective call on every rank and waits.
func runCollective(colls []comm.Collective, body func(c comm.Collective)) {
	done := make(chan struct{})
	for _, c := range colls {
		go func(c comm.Collective) {
			body(c)
			done <- struct{}{}
		}(c)
	}
	for range colls {
		<-done
	}
}

// --- Collective algorithms ---------------------------------------------------------

// BenchmarkCollective compares the all-reduce algorithms behind the
// comm.Collective interface on identical payloads: the flat ring, the
// recursive-doubling tree, and the executable hierarchical 2-D torus.
func BenchmarkCollective(b *testing.B) {
	const n = 8
	slice := topology.Slice{Rows: 2, Cols: 4}
	for _, bench := range []struct {
		name string
		prov comm.Provider
	}{
		{"allreduce_ring_8ranks_1M", comm.RingProvider()},
		{"allreduce_tree_8ranks_1M", comm.TreeProvider()},
		{"allreduce_torus2d_8ranks_1M", comm.Torus2DProvider(slice)},
	} {
		bench := bench
		b.Run(bench.name, func(b *testing.B) {
			colls, err := bench.prov.Connect(n)
			if err != nil {
				b.Fatal(err)
			}
			bufs := make([][]float32, n)
			for r := range bufs {
				bufs[r] = make([]float32, 1<<20/4)
			}
			b.SetBytes(1 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCollective(colls, func(c comm.Collective) { c.AllReduce(bufs[c.Rank()]) })
			}
		})
	}

	// Ranks read their peers' buffers straight from the world's shared
	// slots, so a warm collective allocates nothing
	// (TestWarmCollectivesAllocateNothing); what allocs/op reports here is
	// runCollective's per-op goroutine fan-out.
	b.Run("allgather_8ranks_16K", func(b *testing.B) {
		colls, err := comm.RingProvider().Connect(8)
		if err != nil {
			b.Fatal(err)
		}
		locals := make([][]float32, 8)
		outs := make([][]float32, 8)
		for r := range locals {
			locals[r] = make([]float32, 4096)
			outs[r] = make([]float32, 8*4096)
		}
		b.SetBytes(8 * 4096 * 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runCollective(colls, func(c comm.Collective) { c.AllGather(locals[c.Rank()], outs[c.Rank()]) })
		}
	})
}

// BenchmarkBucketedOverlap measures the real training step under different
// gradient bucket sizes — the executable counterpart of the overlap model's
// BenchmarkOverlapAblation.
func BenchmarkBucketedOverlap(b *testing.B) {
	for _, bucket := range []int{1 << 30, 64 << 10, 8 << 10} {
		bucket := bucket
		name := fmt.Sprintf("bucket%dKiB", bucket>>10)
		if bucket == 1<<30 {
			name = "unbucketed"
		}
		b.Run(name, func(b *testing.B) {
			ds := data.New(data.MiniConfig(4, 512, 16))
			eng, err := replica.New(replica.Config{
				World:           4,
				PerReplicaBatch: 2,
				Model:           "pico",
				Dataset:         ds,
				OptimizerName:   "sgd",
				Schedule:        schedule.Constant(0.05),
				Precision:       bf16.FP32Policy,
				Seed:            1,
				NoAugment:       true,
				GradBucketBytes: bucket,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(float64(eng.GlobalBatch())*float64(b.N)/b.Elapsed().Seconds(), "img/s")
		})
	}
}

// BenchmarkTopK measures top-1/top-5 scoring over ImageNet-shaped logit
// batches (1000 classes). The rank-counting scan replaced a per-row
// allocate-and-full-sort (~3 allocs and a 1000-element sort per image);
// allocs/op should read 0.
func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const rows, cols, k = 64, 1000, 5
	logits := make([]float32, rows*cols)
	labels := make([]int, rows)
	for i := range logits {
		logits[i] = rng.Float32()
	}
	for i := range labels {
		labels[i] = rng.Intn(cols)
	}
	b.SetBytes(int64(rows * cols * 4))
	b.ReportAllocs()
	b.ResetTimer()
	var top1, topk int
	for i := 0; i < b.N; i++ {
		top1, topk = metrics.TopK(logits, rows, cols, k, labels)
	}
	b.ReportMetric(float64(top1+topk), "hits") // defeat dead-code elimination
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// --- Input pipeline ---------------------------------------------------------------

// newPrefetchBenchEngine builds the multi-replica mini engine the prefetch
// benchmarks step: augmentation on, because host-side input work is what the
// pipeline exists to hide.
func newPrefetchBenchEngine(b *testing.B, prefetch int) *replica.Engine {
	b.Helper()
	ds := data.New(data.MiniConfig(4, 512, 16))
	eng, err := replica.New(replica.Config{
		World:           4,
		PerReplicaBatch: 4,
		Model:           "pico",
		Dataset:         ds,
		OptimizerName:   "sgd",
		Schedule:        schedule.Constant(0.05),
		Precision:       bf16.FP32Policy,
		Seed:            1,
		NoAugment:       false,
		PrefetchDepth:   prefetch,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	return eng
}

// BenchmarkPrefetch measures real multi-replica training steps at two
// input-pipeline depths: batches rendered and augmented on background
// goroutines, depth batches ahead of each replica. Every depth delivers
// bit-for-bit identical batches, so the throughput delta is pure
// input-pipeline overlap.
func BenchmarkPrefetch(b *testing.B) {
	for _, depth := range []int{2, 4} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			eng := newPrefetchBenchEngine(b, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(eng.GlobalBatch())*float64(b.N)/b.Elapsed().Seconds(), "img/s")
		})
	}
}

// BenchmarkRenderThroughput is the rendering microbenchmark behind the
// pipeline sizing: how fast the host can synthesize SynthImageNet batches
// (per-pixel sin/exp/NormFloat64 — the work prefetching hides).
func BenchmarkRenderThroughput(b *testing.B) {
	for _, res := range []int{16, 32} {
		res := res
		b.Run(fmt.Sprintf("fillbatch16_res%d", res), func(b *testing.B) {
			ds := data.New(data.MiniConfig(8, 2048, res))
			shard := data.NewShard(ds, 0, 0, 1)
			batch := tensor.New(16, 3, res, res)
			labels := make([]int, 16)
			b.SetBytes(int64(16 * 3 * res * res * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shard.FillBatch(0, i, batch, labels)
			}
			b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "img/s")
		})
	}
	b.Run("render_single_res32", func(b *testing.B) {
		ds := data.New(data.MiniConfig(8, 2048, 32))
		dst := make([]float32, 3*32*32)
		b.SetBytes(int64(len(dst) * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds.Render(0, i%2048, dst)
		}
	})
}

// --- §3.2 ablation: LR schedule choice for LARS ---------------------------------

// BenchmarkScheduleAblation measures, with real mini-scale training, the
// §3.2 finding that polynomial decay beats exponential decay for LARS. The
// reported val-top1 metric carries the outcome.
func BenchmarkScheduleAblation(b *testing.B) {
	for _, decay := range []string{"polynomial", "exponential"} {
		decay := decay
		b.Run("lars_"+decay, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				ds := data.New(data.MiniConfig(8, 2048, 16))
				var sched schedule.Schedule
				const epochs = 4
				if decay == "polynomial" {
					sched = schedule.Warmup{Epochs: 1, Inner: schedule.Polynomial{Peak: 10, End: 0, TotalEpochs: epochs, Power: 2}}
				} else {
					sched = schedule.Warmup{Epochs: 1, Inner: schedule.Exponential{Peak: 10, Rate: 0.97, DecayEpochs: 2.4, Staircase: true}}
				}
				eng, err := replica.New(replica.Config{
					World: 4, PerReplicaBatch: 16, Model: "pico", Dataset: ds,
					OptimizerName: "lars", WeightDecay: 1e-5, Schedule: sched,
					BNGroupSize: 4, Precision: bf16.DefaultPolicy, LabelSmoothing: 0.1,
					Seed: 7, DropoutOverride: 0, DropConnectOverride: 0, BNMomentum: 0.9,
				})
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < epochs*eng.StepsPerEpoch(); s++ {
					eng.Step()
				}
				acc, _ = eng.Evaluate(32)
				eng.Close()
			}
			b.ReportMetric(acc, "val-top1")
		})
	}
}

// --- §5 future work: hybrid data+model parallelism --------------------------------

func BenchmarkHybridParallel(b *testing.B) {
	for _, m := range []int{1, 2, 4, 8} {
		m := m
		b.Run(fmt.Sprintf("modelshards%d", m), func(b *testing.B) {
			var row podsim.HybridStep
			batch := podsim.MinGlobalBatch(2048, m)
			for i := 0; i < b.N; i++ {
				var err error
				row, err = podsim.HybridModelStep("b5", 2048, batch, m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch), "min-batch")
			b.ReportMetric(row.ThroughputImgPerMs(), "img/ms")
			b.ReportMetric(100*row.ActExchangeSeconds/row.StepSeconds(), "act-exchange-pct")
		})
	}
}

// --- Design-choice ablation: all-reduce/backward overlap --------------------------

func BenchmarkOverlapAblation(b *testing.B) {
	for _, model := range []string{"b2", "b5"} {
		model := model
		b.Run(model+"_1024cores", func(b *testing.B) {
			var g podsim.OverlapResult
			for i := 0; i < b.N; i++ {
				var err error
				g, err = podsim.ModelStepGradReady(model, 1024, 32768, 0, 4<<20)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(g.AllReducePct(), "serialized-allreduce-pct")
			b.ReportMetric(g.SpeedupPct(), "overlap-speedup-pct")
			b.ReportMetric(100*g.OverlapFraction, "gradready-overlap-pct")
		})
	}
}

// --- Telemetry overhead -----------------------------------------------------------

// BenchmarkStep measures the telemetry subsystem's hot-path cost on a real
// multi-replica training step:
//
//	off        — Config.Telemetry nil: the instrumentation is compiled out
//	             (no clock reads, no atomics); the baseline.
//	nosink     — a Recorder with no sinks attached: phase timers run, every
//	             collective is instrumented, StepDone aggregates the summary,
//	             but nothing is emitted. The acceptance bar is <1% overhead
//	             vs off.
//	jsonl      — a JSONL sink writing to io.Discard: the cost of actually
//	             emitting per-step records.
func BenchmarkStep(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  func() *telemetry.Recorder
	}{
		{"off", func() *telemetry.Recorder { return nil }},
		{"nosink", func() *telemetry.Recorder { return telemetry.NewRecorder() }},
		{"jsonl", func() *telemetry.Recorder { return telemetry.NewRecorder(telemetry.NewJSONL(io.Discard)) }},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			ds := data.New(data.MiniConfig(4, 512, 16))
			rec := c.rec()
			eng, err := replica.New(replica.Config{
				World:           4,
				PerReplicaBatch: 4,
				Model:           "pico",
				Dataset:         ds,
				OptimizerName:   "sgd",
				Schedule:        schedule.Constant(0.05),
				// Distributed BN keeps the replica goroutines lockstepped
				// through backward, so the reported overlap metrics measure
				// the grad-ready dispatch rather than scheduler skew on
				// hosts with fewer cores than replicas.
				BNGroupSize: 4,
				Precision:   bf16.FP32Policy,
				Seed:        1,
				NoAugment:   true,
				Telemetry:   rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			eng.Step() // warm pipelines and pools off the clock
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(float64(eng.GlobalBatch())*float64(b.N)/b.Elapsed().Seconds(), "img/s")
			if rec != nil {
				sum := rec.Summary()
				b.ReportMetric(sum.OverlapEfficiency(), "overlap-eff")
				if sum.Steps > 0 {
					b.ReportMetric(sum.Phases[telemetry.PhaseReduceTail].Seconds()*1e3/float64(sum.Steps), "reduce-tail-ms")
				}
			}
		})
	}
}

// --- Inference path ---------------------------------------------------------------

// BenchmarkEvalForward is the before/after for the inference-mode forward
// split: "tape" is what replica.Evaluate used to run (an eval-mode autograd
// forward, paying tape-node and gradient-buffer allocations it never uses),
// "infer" is what Evaluate now runs: the model frozen once
// (efficientnet.Freeze), then one Plan.Infer per batch in one workspace. Both
// compute bit-identical logits (asserted by TestPlanMatchesEvalForward), so
// the delta is pure bookkeeping cost.
func BenchmarkEvalForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cfg, _ := efficientnet.ConfigByName("pico", 4)
	cfg.Resolution = 16
	m := efficientnet.New(rng, cfg)
	const batch = 16
	x := tensor.Randn(rng, 1, batch, 3, 16, 16)
	b.Run("tape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := &nn.Ctx{Training: false, Precision: bf16.FP32Policy}
			m.Forward(ctx, autograd.Constant(x))
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "img/s")
	})
	b.Run("infer", func(b *testing.B) {
		p, ws := efficientnet.Freeze(m, bf16.FP32Policy), efficientnet.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Infer(ws, x)
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "img/s")
	})
}

// BenchmarkBatchedInference drives the serving batcher end to end
// (admission, coalescing, pooled copy, tape-free forward, reply) at batch
// sizes 1/8/32, with a JSONL sink attached so each measured batch flows
// through the same kind-tagged telemetry schema the training sinks emit
// ("serve_batch" lines, minisweep-readable). img/s is the serving
// throughput; avg-batch confirms the coalescing actually happened.
func BenchmarkBatchedInference(b *testing.B) {
	for _, size := range []int{1, 8, 32} {
		size := size
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			cfg, _ := efficientnet.ConfigByName("pico", 4)
			cfg.Resolution = 16
			m := efficientnet.New(rng, cfg)
			bt, err := serve.NewBatcher(serve.Config{
				Provider: serve.Static{M: m, Tag: "bench"},
				MaxBatch: size,
				Sinks:    []serve.Sink{serve.NewJSONL(io.Discard)},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.Close()
			px := make([]float32, bt.SampleLen())
			for i := range px {
				px[i] = rng.Float32()
			}
			// Closed-loop clients sized so batches can fill; together they
			// issue exactly b.N requests.
			clients := 2 * size
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for remaining.Add(-1) >= 0 {
						if _, err := bt.Predict(px); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "img/s")
			b.ReportMetric(bt.Stats().AvgBatch, "avg-batch")
		})
	}
}

// --- Real distributed step ------------------------------------------------------

func BenchmarkMiniStep(b *testing.B) {
	cases := []struct {
		world, perBatch, bnGroup int
	}{
		{1, 8, 1},
		{4, 2, 1},
		{4, 2, 4},
		{8, 1, 8},
	}
	for _, c := range cases {
		c := c
		b.Run(fmt.Sprintf("world%d_batch%d_bn%d", c.world, c.perBatch, c.bnGroup), func(b *testing.B) {
			eng := newBenchEngine(b, c.world, c.perBatch, c.bnGroup)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(float64(eng.GlobalBatch())*float64(b.N)/b.Elapsed().Seconds(), "img/s")
		})
	}
}
