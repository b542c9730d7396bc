package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/optim"
	"effnetscale/internal/replica"
	"effnetscale/internal/serve"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/tensor"
)

// probeShape is the input shape of the workload a traced run belongs to:
// probes and companion stretches are shaped like the workload's own inputs.
type probeShape struct {
	res, classes, batch int
	seed                int64
	// model is the workload's own model; probes read it and never step it.
	model *efficientnet.Model
}

// probeBatch is the batch size kernel and model probes run at.
const probeBatch = 32

// layersExcept completes a traced run's per-layer metrics. The workload's
// own traced stretch already supplied the groups named in have (engine,
// session, serve) through the program's sinks; the others come from companion
// stretches, and the rest from probes: direct timed calls into a layer's
// public functions, run after the timed part.
func layersExcept(r *run, shape probeShape, have ...string) error {
	for _, c := range []struct {
		group string
		run   func(*run, probeShape) error
	}{{"engine", engineCompanion}, {"session", sessionCompanion}, {"serve", serveCompanion}} {
		if slices.Contains(have, c.group) {
			continue
		}
		if err := c.run(r, shape); err != nil {
			return err
		}
	}
	probeKernels(r, shape)
	probeModel(r, shape)
	probeData(r, shape)
	probeCollectives(r)
	if err := probeEngine(r, shape); err != nil {
		return err
	}
	return probeLoader(r, shape)
}

// sample times fn reps times after two warm calls, inside one span named
// after the metric, and returns the per-call durations.
func sample(r *run, metric string, reps int, fn func()) []time.Duration {
	fn()
	fn()
	out := make([]time.Duration, reps)
	r.tr.time(rootSpan, "probe."+metric, 0, func() {
		for i := range out {
			t0 := time.Now()
			fn()
			out[i] = time.Since(t0)
		}
	})
	return out
}

func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// pairedOverhead alternates equal blocks of work between an instrumented
// instance and a plain one, switching which goes first each round, and
// returns the median share of its rate the instrumented one loses, in
// percent. Each function runs one block and returns its wall time.
func pairedOverhead(rounds int, with, without func() (time.Duration, error)) (float64, error) {
	var pct []float64
	for i := 0; i < rounds; i++ {
		first, second := with, without
		if i%2 == 1 {
			first, second = without, with
		}
		a, err := first()
		if err != nil {
			return 0, err
		}
		b, err := second()
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		pct = append(pct, 100*(1-float64(b)/float64(a)))
	}
	return median(pct), nil
}

// mallocs counts the heap objects fn allocates.
func mallocs(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// convLayer is one convolution of the model with its input size.
type convLayer struct {
	w         *tensor.Tensor
	spec      tensor.ConvSpec
	depthwise bool
	cin, hw   int
}

func (c convLayer) outHW() int {
	k := c.w.Dim(2)
	return (c.hw+2*c.spec.PadH-k)/c.spec.StrideH + 1
}

// macs is the layer's multiply-adds per image.
func (c convLayer) macs() float64 {
	o := float64(c.outHW())
	return o * o * float64(c.w.Len())
}

// bytes is the layer's computed traffic per image: input, output and
// weights read or written once, in fp32.
func (c convLayer) bytes() float64 {
	o := float64(c.outHW())
	in := float64(c.cin * c.hw * c.hw)
	return 4 * (in + o*o*float64(c.w.Dim(0)) + float64(c.w.Len()))
}

// convLayers walks the model's convolutions in forward order.
func convLayers(m *efficientnet.Model) []convLayer {
	var out []convLayer
	hw := m.Config.Resolution
	add := func(w *tensor.Tensor, spec tensor.ConvSpec, depthwise bool, cin int) {
		l := convLayer{w, spec, depthwise, cin, hw}
		out = append(out, l)
		hw = l.outHW()
	}
	add(m.StemConv.W.Data(), m.StemConv.Spec, false, 3)
	for _, b := range m.Blocks {
		if b.Expand != nil {
			add(b.Expand.W.Data(), b.Expand.Spec, false, b.In)
		}
		add(b.Depthwise.W.Data(), b.Depthwise.Spec, true, b.ExpandedCh)
		add(b.Project.W.Data(), b.Project.Spec, false, b.ExpandedCh)
	}
	add(m.HeadConv.W.Data(), m.HeadConv.Spec, false, m.HeadConv.W.Data().Dim(1))
	return out
}

// probeKernels times the model's costliest convolution of each kind at
// batch 32 through the *Into kernels with one reused Scratch, a 256-cube
// GEMM, and the largest activation through batch norm and Swish.
func probeKernels(r *run, shape probeShape) {
	rng := rand.New(rand.NewSource(shape.seed))
	a, b, c := tensor.Randn(rng, 1, 256, 256), tensor.Randn(rng, 1, 256, 256), tensor.New(256, 256)
	gemm := sample(r, "tensor.gemm_gflops", 30, func() { tensor.MatMulInto(c, a, b, false) })
	r.set("tensor.gemm_gflops", 2*256*256*256/medianUS(gemm)/1e3, len(gemm))

	layers := convLayers(shape.model)
	var flops, bytes float64
	var widest [3]*convLayer // 1×1, k×k full, depthwise
	actC, actHW := 0, 0      // the largest activation any conv produces
	for i := range layers {
		l := &layers[i]
		flops += 2 * l.macs()
		bytes += l.bytes()
		kind := 0
		switch {
		case l.depthwise:
			kind = 2
		case l.w.Dim(2) > 1:
			kind = 1
		}
		if widest[kind] == nil || l.macs() > widest[kind].macs() {
			widest[kind] = l
		}
		if l.w.Dim(0)*l.outHW()*l.outHW() > actC*actHW*actHW {
			actC, actHW = l.w.Dim(0), l.outHW()
		}
	}
	// Computed from the layer shapes, not measured.
	r.set("tensor.conv_flops_per_img", flops/1e6, len(layers))
	r.set("tensor.conv_bytes_per_img", bytes/1024, len(layers))

	sc := tensor.NewScratch()
	var calls, allocs uint64
	for kind, names := range [][2]string{
		{"tensor.conv1x1_fwd_us", "tensor.conv1x1_bwd_us"},
		{"tensor.conv3x3_fwd_us", "tensor.conv3x3_bwd_us"},
		{"tensor.depthwise_fwd_us", "tensor.depthwise_bwd_us"},
	} {
		l := widest[kind]
		x := tensor.Randn(rng, 1, probeBatch, l.cin, l.hw, l.hw)
		y := tensor.New(probeBatch, l.w.Dim(0), l.outHW(), l.outHW())
		dy := tensor.Randn(rng, 1, y.Shape()...)
		dx, dw := tensor.New(x.Shape()...), tensor.New(l.w.Shape()...)
		fwd := func() { tensor.Conv2DInto(y, x, l.w, l.spec, sc) }
		bwd := func() { tensor.Conv2DBackwardInto(dx, dw, x, l.w, dy, l.spec, sc) }
		if l.depthwise {
			fwd = func() { tensor.DepthwiseConv2DInto(y, x, l.w, l.spec) }
			bwd = func() { tensor.DepthwiseConv2DBackwardInto(dx, dw, x, l.w, dy, l.spec) }
		}
		f := sample(r, names[0], 20, fwd)
		g := sample(r, names[1], 20, bwd)
		r.set(names[0], medianUS(f), len(f))
		r.set(names[1], medianUS(g), len(g))
		allocs += mallocs(func() {
			for i := 0; i < 10; i++ {
				fwd()
				bwd()
			}
		})
		calls += 20
	}
	r.set("tensor.kernel_allocs_per_call", float64(allocs)/float64(calls), int(calls))

	x := tensor.Randn(rng, 1, probeBatch, actC, actHW, actHW)
	bn := nn.NewBatchNorm("probe_bn", actC)
	ctx := &nn.Ctx{Training: true, Precision: bf16.FP32Policy, Scratch: sc}
	v := autograd.Constant(x)
	bnT := sample(r, "nn.batchnorm_fwd_us", 20, func() { bn.Forward(ctx, v) })
	r.set("nn.batchnorm_fwd_us", medianUS(bnT), len(bnT))
	sw := sample(r, "autograd.swish_fwd_us", 20, func() { autograd.Swish(v) })
	r.set("autograd.swish_fwd_us", medianUS(sw), len(sw))
}

// probeModel times the model outside the engine: forward and tape backward
// at batch 32 on a fresh model of the same configuration (a training forward
// moves BN statistics, so the workload's own model is left alone), the
// tape-free forward at batch 1 and 32, and the optimizers over its
// parameters.
func probeModel(r *run, shape probeShape) {
	rng := rand.New(rand.NewSource(shape.seed))
	cfg := shape.model.Config
	m := efficientnet.New(rng, cfg)
	tape := autograd.NewTape()
	m.RegisterParams(tape)
	ctx := &nn.Ctx{Training: true, Precision: bf16.FP32Policy, RNG: rng, Scratch: tensor.NewScratch()}
	x := tensor.Randn(rng, 1, probeBatch, 3, cfg.Resolution, cfg.Resolution)
	labels := make([]int, probeBatch)
	for i := range labels {
		labels[i] = i % cfg.NumClasses
	}
	var loss *autograd.Value
	forward := func() { loss = autograd.SoftmaxCrossEntropy(m.Forward(ctx, autograd.Constant(x)), labels, 0) }
	zero := func() {
		for _, p := range m.Params() {
			p.Value.ZeroGrad()
		}
	}
	var fwd, bwd []time.Duration
	var m0, m1 runtime.MemStats
	const reps = 10
	r.tr.time(rootSpan, "probe.efficientnet.forward_ms", 0, func() {
		for i := 0; i < reps+2; i++ {
			if i == 2 {
				runtime.ReadMemStats(&m0)
			}
			zero()
			t0 := time.Now()
			forward()
			t1 := time.Now()
			tape.Backward(loss)
			t2 := time.Now()
			if i >= 2 {
				fwd, bwd = append(fwd, t1.Sub(t0)), append(bwd, t2.Sub(t1))
			}
		}
		runtime.ReadMemStats(&m1)
	})
	r.set("efficientnet.forward_ms", medianUS(fwd)/1e3, reps)
	r.set("efficientnet.backward_ms", medianUS(bwd)/1e3, reps)
	r.set("efficientnet.fwdbwd_allocs", float64(m1.Mallocs-m0.Mallocs)/reps, reps)
	r.set("efficientnet.fwdbwd_alloc_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/reps, reps)

	x1 := tensor.Randn(rng, 1, 1, 3, cfg.Resolution, cfg.Resolution)
	b1 := sample(r, "efficientnet.infer_b1_ms", 50, func() { shape.model.Infer(bf16.FP32Policy, x1) })
	b32 := sample(r, "efficientnet.infer_b32_ms", 20, func() { shape.model.Infer(bf16.FP32Policy, x) })
	r.set("efficientnet.infer_b1_ms", medianUS(b1)/1e3, len(b1))
	r.set("efficientnet.infer_b32_ms", medianUS(b32)/1e3, len(b32))
	r.set("efficientnet.infer_allocs", float64(mallocs(func() {
		for i := 0; i < 10; i++ {
			shape.model.Infer(bf16.FP32Policy, x)
		}
	}))/10, 10)

	// The last backward left a gradient on every parameter.
	for _, o := range []struct{ name, metric string }{{"sgd", "optim.sgd_step_us"}, {"lars", "optim.lars_step_us"}} {
		opt, _ := optim.ByName(o.name, 1e-5)
		t := sample(r, o.metric, 20, func() { opt.Step(m.Params(), 1e-3) })
		r.set(o.metric, medianUS(t), len(t))
	}
}

// probeData times rendering one image and taking a batch from a pipeline
// that has had time to fill.
func probeData(r *run, shape probeShape) {
	ds := data.New(data.Config{NumClasses: shape.classes, TrainSize: 1024, ValSize: 256, Resolution: shape.res, NoiseStd: 0.25, Seed: shape.seed})
	dst := make([]float32, 3*shape.res*shape.res)
	i := 0
	render := sample(r, "data.render_us_per_img", 200, func() { ds.Render(0, i%1024, dst); i++ })
	r.set("data.render_us_per_img", medianUS(render), len(render))

	p, err := data.NewPipeline(data.PipelineConfig{
		Shard: data.NewShard(ds, 0, 0, 1), BatchSize: shape.batch, StepsPerEpoch: 1024 / shape.batch,
		Depth: replica.DefaultPrefetchDepth, Augment: true, AugmentSeed: shape.seed,
	})
	if err != nil {
		r.check("probe_pipeline", false, "%v", err)
		return
	}
	defer p.Stop()
	var waits []time.Duration
	r.tr.time(rootSpan, "probe.data.next_us_p50", 0, func() {
		for k := 0; k < 30; k++ {
			// Give the producer time to refill before the timed call.
			time.Sleep(4 * time.Millisecond)
			t0 := time.Now()
			b, _ := p.Next()
			waits = append(waits, time.Since(t0))
			p.Recycle(b)
		}
	})
	r.set("data.next_us_p50", medianUS(waits), len(waits))
}

// probeCollectives times a ring all-reduce over eight goroutine ranks at the
// two payloads a training step sends: one 32 KiB gradient bucket and one
// 256-byte batch-norm statistics vector. Rank 0's time per call is reported.
func probeCollectives(r *run) {
	for _, c := range []struct {
		metric string
		floats int
	}{{"comm.allreduce_32k_w8_us", 8192}, {"comm.allreduce_256b_w8_us", 64}} {
		colls, err := comm.RingProvider().Connect(8)
		if err != nil {
			r.check("probe_collectives", false, "%v", err)
			return
		}
		const reps = 200
		times := make([]time.Duration, 0, reps)
		r.tr.time(rootSpan, "probe."+c.metric, 0, func() {
			done := make(chan struct{})
			for _, coll := range colls {
				go func(coll comm.Collective) {
					buf := make([]float32, c.floats)
					for i := 0; i < reps+10; i++ {
						t0 := time.Now()
						coll.AllReduce(buf)
						if coll.Rank() == 0 && i >= 10 {
							times = append(times, time.Since(t0))
						}
					}
					done <- struct{}{}
				}(coll)
			}
			for range colls {
				<-done
			}
		})
		r.set(c.metric, medianUS(times), len(times))
	}
}

// engineCompanion gives a traced run of a workload that does not step an
// engine itself its replica and comm numbers: a short stretch of the plain
// single-worker baseline at the workload's input shape.
func engineCompanion(r *run, shape probeShape) error {
	defer setProcs(trainCompute.procs, trainCompute.procs)()
	s := trainCompute
	s.res, s.classes = shape.res, shape.classes
	sink := newRecords()
	eng, err := replica.New(s.config(shape.seed, telemetry.NewRecorder(sink)))
	if err != nil {
		return err
	}
	defer eng.Close()
	if _, _, err := stepN(eng, warmSteps); err != nil {
		return err
	}
	sink.reset()
	t, err := measure(true, func() (*opLog, error) {
		log, _, err := stepN(eng, 40)
		return log, err
	})
	if err != nil {
		return err
	}
	engineLayers(r, sink.steps, t.log.ends, &t.mem0, &t.mem1, s.world)
	return nil
}

// probeEngine times, on the plain single-worker baseline at the workload's
// input shape, engine construction and the first step, the operations a
// training loop calls between steps (evaluation, state capture), the snapshot
// file round trip, and the scaling of the step from one proc to two.
func probeEngine(r *run, shape probeShape) error {
	defer setProcs(1, 1)()
	s := trainCompute
	s.res, s.classes = shape.res, shape.classes
	var eng *replica.Engine
	var err error
	var construct, first []time.Duration
	for i := 0; i < setupReps; i++ {
		if eng != nil {
			eng.Close()
		}
		_, d := r.tr.time(rootSpan, "probe.replica.new_ms", 0, func() { eng, err = replica.New(s.config(shape.seed, nil)) })
		if err != nil {
			return err
		}
		construct = append(construct, d)
		_, d = r.tr.time(rootSpan, "probe.replica.first_step_ms", 0, func() { _, err = eng.Step() })
		if err != nil {
			eng.Close()
			return err
		}
		first = append(first, d)
	}
	defer eng.Close()
	r.set("replica.new_ms", medianUS(construct)/1e3, setupReps)
	r.set("replica.first_step_ms", medianUS(first)/1e3, setupReps)
	if _, _, err := stepN(eng, warmSteps); err != nil {
		return err
	}

	const steps = 40
	var rate, cpu [2]float64
	for i, procs := range []int{1, 2} {
		setProcs(procs, procs)
		if _, _, err := stepN(eng, 3); err != nil {
			return err
		}
		var log *opLog
		r.tr.time(rootSpan, fmt.Sprintf("probe.parallel.p%d", procs), 0, func() { log, _, err = stepN(eng, steps) })
		if err != nil {
			return err
		}
		rate[i], cpu[i] = log.ratePerS(1), ms(log.cpuTotal())/steps
	}
	r.set("parallel.speedup_p2", rate[1]/rate[0], steps)
	r.set("parallel.cpu_inflation_p2", cpu[1]/cpu[0], steps)
	setProcs(1, 1)

	var evalErr error
	ev := sample(r, "replica.evaluate_ms", 5, func() {
		if _, err := eng.Evaluate(64); err != nil {
			evalErr = err
		}
	})
	if evalErr != nil {
		return evalErr
	}
	r.set("replica.evaluate_ms", medianUS(ev)/1e3, len(ev))
	var snap *checkpoint.Snapshot
	capT := sample(r, "replica.capture_state_ms", 5, func() { snap, err = eng.CaptureState() })
	if err != nil {
		return err
	}
	r.set("replica.capture_state_ms", medianUS(capT)/1e3, len(capT))

	path := filepath.Join(r.tmp, "probe-step-000000001.ckpt")
	wr := sample(r, "checkpoint.write_ms", 5, func() { err = checkpoint.WriteSnapshotFile(path, snap) })
	if err != nil {
		return err
	}
	rd := sample(r, "checkpoint.read_ms", 5, func() { _, err = checkpoint.ReadSnapshotFile(path) })
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("checkpoint.write_ms", medianUS(wr)/1e3, len(wr))
	r.set("checkpoint.read_ms", medianUS(rd)/1e3, len(rd))
	r.set("checkpoint.snapshot_kb", float64(info.Size())/1024, 1)
	return nil
}

// probeLoader times the serving Loader booting from a snapshot directory,
// and a hot reload: from a newer snapshot's rename into the directory to the
// Loader's OnSwap, polling every 10 ms.
func probeLoader(r *run, shape probeShape) error {
	dir := filepath.Join(r.tmp, "probe-loader")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeModelSnapshot(dir, 1, shape.model); err != nil {
		return err
	}
	var err error
	boot := sample(r, "serve.loader_boot_ms", 5, func() {
		var l *serve.Loader
		if l, err = serve.NewLoader(serve.LoaderConfig{SnapshotDir: dir, Poll: -1}); err == nil {
			l.Close()
		}
	})
	if err != nil {
		return err
	}
	r.set("serve.loader_boot_ms", medianUS(boot)/1e3, len(boot))

	swapped := make(chan struct{}, 1)
	l, err := serve.NewLoader(serve.LoaderConfig{SnapshotDir: dir, Poll: 10 * time.Millisecond, OnSwap: func(string) { swapped <- struct{}{} }})
	if err != nil {
		return err
	}
	defer l.Close()
	var reload []time.Duration
	r.tr.time(rootSpan, "probe.serve.reload_ms", 0, func() {
		for step := 2; step < 2+5; step++ {
			if err = writeModelSnapshot(dir, step, shape.model); err != nil {
				return
			}
			t0 := time.Now()
			select {
			case <-swapped:
				reload = append(reload, time.Since(t0))
			case <-time.After(5 * time.Second):
				err = fmt.Errorf("hot reload of step %d not seen within 5 s", step)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	r.set("serve.reload_ms", medianUS(reload)/1e3, len(reload))
	return nil
}
