package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/data"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/tensor"
)

// warmSteps is how many steps an engine runs before its timed stretch.
const warmSteps = 5

// setupReps is how many times a sub-second construction is repeated; the
// median is reported and timing of the run proper starts after the last.
const setupReps = 9

// engineSpec is a workload that steps a replica.Engine directly: plain SGD
// at a constant rate in fp32, augmentation and prefetch on.
type engineSpec struct {
	procs, world, batch, bnGroup int
	res, classes, images         int
	// stepsPerSecond sizes the fixed work: timed steps per second of
	// --seconds (about the seed commit's own rate).
	stepsPerSecond float64
	// window is the number of trailing steps whose mean loss is compared
	// with targetLoss (reaching it is the workload's goal, checked every
	// window steps) and, at the last step, with lossMax.
	window              int
	targetLoss, lossMax float64
}

var trainCompute = engineSpec{
	procs: 1, world: 1, batch: 32, bnGroup: 1,
	res: 32, classes: 8, images: 4096,
	stepsPerSecond: 30, window: 64, targetLoss: 0.1, lossMax: 0.05,
}

// trainSync steps its eight ranks on one proc as well. On two, the same steps
// were slower (81 against 87 per second, 17.5 against 11.5 ms of CPU each) and
// three times as unsteady from run to run (README.md, "Noise"): every one of
// the ~390 rendezvous then waits for a second vCPU of a shared host.
var trainSync = engineSpec{
	procs: 1, world: 8, batch: 2, bnGroup: 8,
	res: 16, classes: 8, images: 4096,
	stepsPerSecond: 84, window: 128, targetLoss: 0.2, lossMax: 0.05,
}

func runTrainCompute(r *run) error { return trainCompute.run(r) }
func runTrainSync(r *run) error    { return trainSync.run(r) }

func (s engineSpec) dataConfig(seed int64) data.Config {
	c := data.MiniConfig(s.classes, s.images, s.res)
	c.Seed = seed
	return c
}

func (s engineSpec) config(seed int64, rec *telemetry.Recorder) replica.Config {
	return replica.Config{
		World:           s.world,
		PerReplicaBatch: s.batch,
		Model:           "pico",
		Dataset:         data.New(s.dataConfig(seed)),
		OptimizerName:   "sgd",
		Schedule:        schedule.Constant(0.05),
		BNGroupSize:     s.bnGroup,
		Precision:       bf16.FP32Policy,
		Seed:            seed,
		BNMomentum:      0.9,
		Telemetry:       rec,
	}
}

// records keeps what the program's telemetry sink delivers, with the time
// each record arrived. The recorder calls a sink on the loop goroutine only.
type records struct {
	telemetry.SinkFuncs
	steps  []telemetry.StepRecord
	evals  []telemetry.EvalRecord
	evalAt []time.Time
	snaps  []telemetry.SnapshotRecord
}

func newRecords() *records {
	rs := &records{}
	rs.StepFn = func(r telemetry.StepRecord) { rs.steps = append(rs.steps, r) }
	rs.EvalFn = func(r telemetry.EvalRecord) {
		rs.evals = append(rs.evals, r)
		rs.evalAt = append(rs.evalAt, time.Now())
	}
	rs.SnapshotFn = func(r telemetry.SnapshotRecord) { rs.snaps = append(rs.snaps, r) }
	return rs
}

func (rs *records) reset() {
	rs.steps, rs.evals, rs.evalAt, rs.snaps = nil, nil, nil, nil
}

// build constructs the dataset and engine and runs the first step, setupReps
// times, keeping the last engine. With a sink the engines carry telemetry.
func (s engineSpec) build(r *run, sink *records) (*replica.Engine, error) {
	var eng *replica.Engine
	var total []float64
	for i := 0; i < setupReps; i++ {
		var rec *telemetry.Recorder
		if sink != nil {
			rec = telemetry.NewRecorder(sink)
		}
		t0 := time.Now()
		e, err := replica.New(s.config(r.seed, rec))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := e.Step(); err != nil {
			e.Close()
			return nil, err
		}
		t2 := time.Now()
		r.tr.add(rootSpan, "replica.new", 0, t0, t1)
		total = append(total, t2.Sub(t0).Seconds())
		if i < setupReps-1 {
			e.Close()
			continue
		}
		eng = e
	}
	r.set("setup_s", median(total), setupReps)
	return eng, nil
}

// stepN runs n steps and returns their timeline and losses.
func stepN(eng *replica.Engine, n int) (*opLog, []float64, error) {
	log := &opLog{}
	losses := make([]float64, 0, n)
	log.begin()
	for i := 0; i < n; i++ {
		res, err := eng.Step()
		if err != nil {
			return nil, nil, err
		}
		log.done()
		losses = append(losses, res.Loss)
	}
	return log, losses, nil
}

// timed is a measured stretch of operations, with the allocation counters
// read on either side of it in a traced run.
type timed struct {
	log        *opLog
	mem0, mem1 runtime.MemStats
}

func measure(readMem bool, fn func() (*opLog, error)) (*timed, error) {
	t := &timed{}
	if readMem {
		runtime.ReadMemStats(&t.mem0)
	}
	log, err := fn()
	if err != nil {
		return nil, err
	}
	if readMem {
		runtime.ReadMemStats(&t.mem1)
	}
	t.log = log
	return t, nil
}

// reportOps sets the end-to-end metrics a closed-loop training stretch
// yields, each from the best of k segments: throughput and CPU per image and
// per operation, and the median latency of an operation as its caller saw it.
func reportOps(r *run, log *opLog, k, imagesPerOp int) {
	n := log.n()
	rate := log.ratePerS(k)
	r.set("sat_req_per_s", rate, n)
	r.set("img_per_s", rate*float64(imagesPerOp), n)
	cpu := log.cpuMSPerOp(k)
	r.set("cpu_ms_per_req", cpu, n)
	r.set("cpu_ms_per_img", cpu/float64(imagesPerOp), n)
	r.set("lat_p50_ms", segmentQuantile(log.latenciesMS(), k, 0.5), n)
}

// reportTarget sets the time to the workload's goal: the operations it took,
// at the run's best sustained rate (reportOps must have run). The wall time
// the run itself took to get there sums every stretch a neighbour slowed, and
// moved 15% between runs of one program where this moved 6%; it is printed
// beside the metric.
func reportTarget(r *run, ops float64, wall time.Duration) {
	r.set("steps_to_target", ops, 1)
	r.set("tta_s", ops/r.metrics["sat_req_per_s"], 1)
	r.note("tta_s", "at the best segment's rate; %.3f s of wall time in this run", wall.Seconds())
}

// lossChecksum fingerprints a loss trajectory bit for bit.
func lossChecksum(losses []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range losses {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// firstWindowBelow returns the first step, a multiple of window, at which
// the mean loss of the window steps before it is at most target.
func firstWindowBelow(losses []float64, window int, target float64) (step int, ok bool) {
	for end := window; end <= len(losses); end += window {
		if mean(losses[end-window:end]) <= target {
			return end, true
		}
	}
	return 0, false
}

// checkLosses applies the training checks shared by every workload that
// steps an engine: every loss finite, the last window's mean below max.
func checkLosses(r *run, losses []float64, window int, max float64) {
	bad := 0
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			bad++
		}
	}
	r.attempted += len(losses)
	r.failed += bad
	r.check("loss_finite", bad == 0, "%d of %d steps non-finite", bad, len(losses))
	if window > len(losses) {
		window = len(losses)
	}
	last := mean(losses[len(losses)-window:])
	if r.fullSize() {
		r.check("loss_trained", last <= max, "mean of last %d losses %.4f, limit %.2f", window, last, max)
	} else {
		r.check("loss_trained", true, "mean of last %d losses %.4f (limit waived on a shortened run)", window, last)
	}
	r.lossSum = lossChecksum(losses)
}

// idleInfer is the latency of answering one image on an otherwise idle
// process: a tape-free fp32 forward (what serving runs) of a single-image
// batch on replica 0's model, on one proc (with two, most of a 0.2 ms forward
// is the wake-up of the second, and the figure moved 25-28% between runs). It
// is sampled in several places of a run, some seconds apart, and reported as
// the best segment's median.
type idleInfer struct{ lat []float64 }

func (p *idleInfer) sample(eng *replica.Engine) {
	defer setProcs(1, 1)()
	m := eng.Replica(0).Model
	x := tensor.New(1, 3, m.Config.Resolution, m.Config.Resolution)
	eng.Replica(0).Dataset().Render(1, 0, x.Data())
	const calls, warm = 500, 20
	for i := 0; i < calls+warm; i++ {
		t0 := time.Now()
		m.Infer(bf16.FP32Policy, x)
		if i >= warm {
			p.lat = append(p.lat, ms(time.Since(t0)))
		}
	}
}

func (p *idleInfer) report(r *run) {
	r.set("idle_lat_p50_ms", segmentQuantile(p.lat, len(p.lat)/100, 0.5), len(p.lat))
}

func (s engineSpec) run(r *run) error {
	setProcs(s.procs, s.procs)
	var sink *records
	if r.trace {
		sink = newRecords()
	}
	eng, err := s.build(r, sink)
	if err != nil {
		return err
	}
	defer eng.Close()
	if _, _, err := stepN(eng, warmSteps-1); err != nil {
		return err
	}
	if sink != nil {
		sink.reset()
	}
	// The sub-second measurements are taken on both sides of the timed
	// stretch, its length apart: the host's speed moves in stretches of
	// seconds, and nine repetitions in a row all see one of them.
	var idle idleInfer
	var before *resumed
	if !r.trace {
		idle.sample(eng)
		if before, err = s.resume(r, eng); err != nil {
			return err
		}
	}

	steps := scaled(s.stepsPerSecond, r.seconds, 2*segments)
	var losses []float64
	t, err := measure(r.trace, func() (*opLog, error) {
		log, l, err := stepN(eng, steps)
		losses = l
		return log, err
	})
	if err != nil {
		return err
	}
	checkLosses(r, losses, s.window, s.lossMax)
	if msg := eng.WeightsInSync(); msg != "" {
		r.check("weights_in_sync", false, "%s", msg)
	} else {
		r.check("weights_in_sync", true, "all %d replicas bitwise equal", s.world)
	}

	if r.trace {
		engineLayers(r, sink.steps, t.log.ends, &t.mem0, &t.mem1, s.world)
		if err := s.overhead(r, steps); err != nil {
			return err
		}
		return layersExcept(r, probeShape{res: s.res, classes: s.classes, batch: s.batch, model: eng.Replica(0).Model, seed: r.seed}, "engine")
	}

	reportOps(r, t.log, segments, eng.GlobalBatch())
	target, ok := firstWindowBelow(losses, s.window, s.targetLoss)
	if !ok {
		// Shortened runs do not train long enough; the whole run stands in.
		target = steps
		r.check("target_reached", !r.fullSize(), "mean loss of %d steps never fell to %.2f in %d steps", s.window, s.targetLoss, steps)
	} else {
		r.check("target_reached", true, "mean loss of %d steps at most %.2f by step %d", s.window, s.targetLoss, target)
	}
	reportTarget(r, float64(target), t.log.at(target).Sub(t.log.start))

	idle.sample(eng)
	after, err := s.resume(r, eng)
	if err != nil {
		return err
	}
	idle.sample(eng)
	idle.report(r)
	// The engine stood before the first timed step when the first snapshot was
	// taken, and takes the step after the second one now.
	next, err := eng.Step()
	if err != nil {
		return err
	}
	r.set("resume_s", min(slices.Min(before.times), slices.Min(after.times)), 2*setupReps)
	r.check("resume_bitwise", before.allEqual(losses[0]) && after.allEqual(next.Loss),
		"resumed step losses vs the uninterrupted engine's, %.17g before the timed stretch and %.17g after", losses[0], next.Loss)
	return nil
}

// resumed is the outcome of coming back from one snapshot setupReps times.
type resumed struct {
	times  []float64   // seconds, from nothing to the first completed operation
	losses []float64   // of that operation, when it is a training step
	logits [][]float32 // when it is a served request
}

func (m *resumed) allEqual(want float64) bool {
	for _, l := range m.losses {
		if math.Float64bits(l) != math.Float64bits(want) {
			return false
		}
	}
	return true
}

// resume writes the engine's state to disk and measures coming back from it:
// a new engine, the snapshot read and restored, one completed step. That step
// must reproduce the uninterrupted engine's next loss exactly; the engine
// itself is not stepped here.
func (s engineSpec) resume(r *run, eng *replica.Engine) (*resumed, error) {
	snap, err := eng.CaptureState()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.tmp, fmt.Sprintf("step-%09d.ckpt", eng.StepCount()))
	if err := checkpoint.WriteSnapshotFile(path, snap); err != nil {
		return nil, err
	}
	out := &resumed{}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		e, err := replica.New(s.config(r.seed, nil))
		if err != nil {
			return nil, err
		}
		loaded, err := checkpoint.ReadSnapshotFile(path)
		if err == nil {
			err = e.RestoreState(loaded)
		}
		var got replica.StepResult
		if err == nil {
			got, err = e.Step()
		}
		out.times = append(out.times, time.Since(t0).Seconds())
		e.Close()
		if err != nil {
			return nil, err
		}
		out.losses = append(out.losses, got.Loss)
	}
	return out, nil
}

// overhead measures what telemetry costs on this workload: two fresh engines
// of one seed, one with a recorder and sink, step in alternating blocks.
func (s engineSpec) overhead(r *run, steps int) error {
	block := func(rec *telemetry.Recorder) (func() (time.Duration, error), func(), error) {
		eng, err := replica.New(s.config(r.seed, rec))
		if err != nil {
			return nil, nil, err
		}
		if _, _, err := stepN(eng, warmSteps); err != nil {
			eng.Close()
			return nil, nil, err
		}
		return func() (time.Duration, error) {
			log, _, err := stepN(eng, max(steps/32, 10))
			if err != nil {
				return 0, err
			}
			return log.ends[log.n()-1].Sub(log.start), nil
		}, eng.Close, nil
	}
	with, closeWith, err := block(telemetry.NewRecorder(newRecords()))
	if err != nil {
		return err
	}
	defer closeWith()
	without, closeWithout, err := block(nil)
	if err != nil {
		return err
	}
	defer closeWithout()
	const rounds = 8
	pct, err := pairedOverhead(rounds, with, without)
	r.set("telemetry.overhead_pct", pct, rounds)
	return err
}

// engineLayers turns the step records the engine's telemetry delivered over
// a timed stretch into the replica, comm and data-starvation metrics, and
// lays the steps out as spans: one replica.step per step with its phases as
// children, in critical-path order, clipped to the step. ends[i] is when the
// caller saw step i return.
func engineLayers(r *run, recs []telemetry.StepRecord, ends []time.Time, mem0, mem1 *runtime.MemStats, world int) {
	n := len(recs)
	if n == 0 || n != len(ends) {
		r.check("step_records", false, "%d step records for %d steps", n, len(ends))
		return
	}
	phases := []struct {
		p      telemetry.Phase
		metric string
	}{
		{telemetry.PhaseDataWait, "replica.data_wait_ms"},
		{telemetry.PhaseForward, "replica.forward_ms"},
		{telemetry.PhaseBackward, "replica.backward_ms"},
		{telemetry.PhaseReduceTail, "replica.reduce_tail_ms"},
		{telemetry.PhaseMPExchange, ""},
		{telemetry.PhaseOptimizer, "replica.optimizer_ms"},
	}
	col := func(f func(telemetry.StepRecord) float64) []float64 {
		out := make([]float64, n)
		for i, rec := range recs {
			out[i] = f(rec)
		}
		return out
	}
	for _, ph := range phases {
		if ph.metric != "" {
			r.set(ph.metric, median(col(func(s telemetry.StepRecord) float64 { return ms(s.Phases[ph.p]) })), n)
		}
	}
	r.set("replica.reduce_ms", median(col(func(s telemetry.StepRecord) float64 { return ms(s.Phases[telemetry.PhaseReduce]) })), n)
	r.set("replica.overlap_eff", median(col(telemetry.StepRecord.OverlapEfficiency)), n)
	walls := col(func(s telemetry.StepRecord) float64 { return ms(s.Wall) })
	r.set("replica.step_p50_ms", median(walls), n)
	tail, q, k := tailOf(walls)
	r.set("replica.step_tail_ms", tail, n)
	r.note("replica.step_tail_ms", "p%.1f, best of %d segments", 100*q, k)
	r.set("replica.self_ms", median(col(func(s telemetry.StepRecord) float64 {
		// Phases are maxima over the replicas, so with several ranks their
		// sum can pass the step's wall time; the remainder is cut at zero,
		// as the trace cuts a step's children to the step.
		self := s.Wall
		for _, ph := range phases {
			self -= s.Phases[ph.p]
		}
		return ms(max(self, 0))
	})), n)

	var calls, bytes, starved int64
	var busy, wall time.Duration
	for _, rec := range recs {
		calls += rec.Collectives.Count
		bytes += rec.Collectives.Bytes
		busy += rec.Collectives.Busy
		wall += rec.Wall
		starved += rec.Starved
	}
	r.set("comm.calls_per_step", float64(calls)/float64(n), n)
	r.set("comm.bytes_per_step", float64(bytes)/float64(n), n)
	r.set("comm.busy_share", float64(busy)/(float64(world)*float64(wall)), n)
	r.set("data.starved_per_100_steps", 100*float64(starved)/float64(n), n)

	r.set("replica.allocs_per_step", float64(mem1.Mallocs-mem0.Mallocs)/float64(n), n)
	r.set("replica.alloc_kb_per_step", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/float64(n), n)
	r.set("replica.gc_per_100_steps", 100*float64(mem1.NumGC-mem0.NumGC)/float64(n), n)

	for i, rec := range recs {
		// The step's own wall time ends where the caller saw it return.
		end := ends[i]
		start := end.Add(-rec.Wall)
		id := r.tr.add(rootSpan, "replica.step", i+1, start, end)
		at := start
		for _, ph := range phases {
			if d := rec.Phases[ph.p]; d > 0 {
				r.tr.child(id, start, end, "replica."+ph.p.String(), i+1, at, at.Add(d))
				at = at.Add(d)
			}
		}
	}
}
