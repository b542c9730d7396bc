package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/data"
	"effnetscale/internal/replica"
	"effnetscale/internal/serve"
	"effnetscale/internal/tensor"
	"effnetscale/internal/train"
)

// sessionSpec is a workload that trains through train.Session with the
// paper's recipe: LARS, linear LR scaling with warmup and polynomial decay,
// BN statistics over all replicas, bf16 convolutions, label smoothing,
// distributed evaluation on a cadence and asynchronous snapshots.
type sessionSpec struct {
	world, batch         int
	res, classes, images int
	epochs               int
	evalEvery, evalSize  int
	snapEvery, keep      int
	// stepsPerSecond sizes the fixed work, in whole snapshot intervals.
	stepsPerSecond float64
	// target is the evaluation accuracy whose first crossing is the time to
	// accuracy. Frozen at calibration: on the seed commit seeds 1-10 first
	// reach it at step 112 (two), 128 (seven) or 144 (one), the tightest
	// grouping of any target between 0.7 and 0.95.
	target float64
}

var lifecycle = sessionSpec{
	world: 4, batch: 16, res: 32, classes: 32, images: 4096, epochs: 6,
	evalEvery: 16, evalSize: 64, snapEvery: 32, keep: 3,
	stepsPerSecond: 12, target: 0.8,
}

const lifecycleProcs = 1

func runLifecycle(r *run) error { return lifecycle.run(r) }

func (s sessionSpec) options(seed int64, dir string, extra ...train.Option) []train.Option {
	dc := data.MiniConfig(s.classes, s.images, s.res)
	dc.Seed = seed
	opts := []train.Option{
		train.PaperRecipe(40, 2),
		train.WithModel("pico"),
		train.WithWorld(s.world),
		train.WithPerReplicaBatch(s.batch),
		train.WithEpochs(s.epochs),
		train.WithSeed(seed),
		train.WithData(dc),
		train.WithEvalEvery(s.evalEvery),
		train.WithEvalSamples(s.evalSize),
		train.WithSnapshotDir(dir),
		train.WithSnapshotEvery(s.snapEvery),
		train.WithKeepLast(s.keep),
	}
	return append(opts, extra...)
}

// steps returns the run's fixed work: whole snapshot intervals, at least two.
// A segment is one interval, so every segment holds the same evaluations and
// one snapshot capture and write, and the run goes on past its first
// snapshot.
func (s sessionSpec) steps(seconds float64) int {
	intervals := int(math.Round(s.stepsPerSecond * seconds / float64(s.snapEvery)))
	return max(intervals, 2) * s.snapEvery
}

// trained is what a session run left behind.
type trained struct {
	sess   *train.Session
	res    *train.Result
	t      *timed
	losses []float64
	// evalAt[i] is when History[i] was recorded.
	evalAt []time.Time
}

// setups constructs a session and runs its first step, setupReps times. The
// session the run trains is built afterwards, so its step numbering starts
// at zero. The last one's state after that step is written to the returned
// snapshot file, which gives the run something to resume from before it has
// trained.
func (s sessionSpec) setups(r *run) (step1 string, err error) {
	var total, construct []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		sess, err := train.New(s.options(r.seed, dir, train.WithCallbacks(train.StopAfterStep(1)))...)
		if err != nil {
			return "", err
		}
		t1 := time.Now()
		_, err = sess.Run()
		total = append(total, time.Since(t0).Seconds())
		construct = append(construct, ms(t1.Sub(t0)))
		r.tr.add(rootSpan, "train.new", 0, t0, t1)
		if err == nil && i == setupReps-1 {
			step1 = filepath.Join(dir, fmt.Sprintf("step-%09d.ckpt", 1))
			err = sess.Snapshot(step1)
		}
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
	}
	r.set("setup_s", median(total), setupReps)
	r.set("train.new_ms", median(construct), setupReps)
	return step1, nil
}

// train runs steps steps of a fresh session and returns it still open.
func (s sessionSpec) train(seed int64, dir string, steps int, readMem bool, sink *records) (*trained, error) {
	out := &trained{}
	log := &opLog{}
	cb := train.Funcs{
		Step: func(_ *train.Session, _ int, res replica.StepResult) {
			log.done()
			out.losses = append(out.losses, res.Loss)
		},
		Eval: func(*train.Session, train.EvalPoint) { out.evalAt = append(out.evalAt, time.Now()) },
	}
	extra := []train.Option{train.WithCallbacks(cb, train.StopAfterStep(steps))}
	if sink != nil {
		extra = append(extra, train.WithTelemetry(sink))
	}
	sess, err := train.New(s.options(seed, dir, extra...)...)
	if err != nil {
		return nil, err
	}
	out.sess = sess
	out.t, err = measure(readMem, func() (*opLog, error) {
		log.begin()
		res, err := sess.Run()
		out.res = res
		return log, err
	})
	if err != nil {
		sess.Close()
		return nil, err
	}
	return out, nil
}

func (s sessionSpec) run(r *run) error {
	setProcs(lifecycleProcs, lifecycleProcs)
	step1, err := s.setups(r)
	if err != nil {
		return err
	}
	var sink *records
	if r.trace {
		sink = newRecords()
	}
	dir := filepath.Join(r.tmp, "snapshots")
	// Resuming is measured on both sides of the training, as on the engine
	// workloads: here from the state after one step.
	var before *resumed
	if !r.trace {
		if before, err = s.resumeFrom(r, dir, step1, 1); err != nil {
			return err
		}
	}
	steps := s.steps(r.seconds)
	tr, err := s.train(r.seed, dir, steps, r.trace, sink)
	if err != nil {
		return err
	}
	defer tr.sess.Close()
	eng := tr.sess.Engine()
	checkLosses(r, tr.losses, s.evalEvery, 1.0)
	if msg := eng.WeightsInSync(); msg != "" {
		r.check("weights_in_sync", false, "%s", msg)
	} else {
		r.check("weights_in_sync", true, "all %d replicas bitwise equal", s.world)
	}
	r.check("snapshots_written", len(tr.res.CheckpointErrors) == 0 && tr.res.CheckpointsSaved == steps/s.snapEvery,
		"%d written, %d errors, want %d", tr.res.CheckpointsSaved, len(tr.res.CheckpointErrors), steps/s.snapEvery)

	if r.trace {
		engineLayers(r, sink.steps, tr.t.log.ends, &tr.t.mem0, &tr.t.mem1, s.world)
		sessionLayers(r, s, tr, sink)
		if err := s.overhead(r); err != nil {
			return err
		}
		return layersExcept(r, probeShape{res: s.res, classes: s.classes, batch: s.batch, model: eng.Replica(0).Model, seed: r.seed}, "engine", "session")
	}

	reportOps(r, tr.t.log, steps/s.snapEvery, eng.GlobalBatch())

	reached := -1
	for i, pt := range tr.res.History {
		if pt.Accuracy >= s.target {
			reached = i
			break
		}
	}
	switch {
	case reached >= 0:
		// The crossing is placed between the last evaluation below the target
		// and the first one at it, in proportion: whole evaluation intervals
		// are an eighth of the answer, and which one a seed lands in made the
		// spread over ten seeds anything from 0 to 25%.
		pt := tr.res.History[reached]
		cross := float64(pt.Step)
		if reached > 0 {
			prev := tr.res.History[reached-1]
			cross = float64(prev.Step) + (s.target-prev.Accuracy)/(pt.Accuracy-prev.Accuracy)*float64(pt.Step-prev.Step)
		}
		r.check("target_reached", true, "top-1 %.3f >= %.2f at step %d", pt.Accuracy, s.target, pt.Step)
		reportTarget(r, cross, tr.evalAt[reached].Sub(tr.t.log.start))
	default:
		// Shortened runs do not train long enough; the whole run stands in.
		r.check("target_reached", !r.fullSize(), "top-1 never reached %.2f in %d steps (peak %.3f)", s.target, steps, tr.res.PeakAccuracy)
		reportTarget(r, float64(steps), tr.res.TotalTime)
	}
	var idle idleInfer
	idle.sample(eng)
	if err := s.resume(r, dir, tr, before); err != nil {
		return err
	}
	idle.sample(eng)
	if err := s.serveFromSnapshots(r, dir, tr); err != nil {
		return err
	}
	idle.sample(eng)
	idle.report(r)
	return nil
}

// resume measures train.New(WithResume) through its first completed step
// from the newest snapshot the run went on past, adds the repetitions made
// before the training, and checks every resumed step's loss against the
// uninterrupted run's bit for bit.
func (s sessionSpec) resume(r *run, dir string, tr *trained, before *resumed) error {
	paths, err := checkpoint.ListSnapshots(dir)
	if err != nil {
		return err
	}
	var from string
	at := 0
	for _, p := range paths {
		var step int
		if _, err := fmt.Sscanf(filepath.Base(p), "step-%d.ckpt", &step); err == nil && step < len(tr.losses) {
			from, at = p, step
		}
	}
	if from == "" {
		r.check("resume_bitwise", false, "no snapshot before step %d among %d files", len(tr.losses), len(paths))
		r.set("resume_s", 0, 0)
		return nil
	}
	after, err := s.resumeFrom(r, dir, from, at)
	if err != nil {
		return err
	}
	r.set("resume_s", min(slices.Min(before.times), slices.Min(after.times)), 2*setupReps)
	// tr.losses[i] is the loss of step i+1.
	r.check("resume_bitwise", before.allEqual(tr.losses[1]) && after.allEqual(tr.losses[at]),
		"losses of step 2 resumed from step 1 and of step %d resumed from step %d vs the uninterrupted run's", at+1, at)
	return nil
}

// resumeFrom comes back from the snapshot file from, taken after step at,
// setupReps times: train.New(WithResume) and one step.
func (s sessionSpec) resumeFrom(r *run, dir, from string, at int) (*resumed, error) {
	out := &resumed{}
	for i := 0; i < setupReps; i++ {
		var got float64
		cb := train.Funcs{Step: func(_ *train.Session, _ int, res replica.StepResult) { got = res.Loss }}
		t0 := time.Now()
		sess, err := train.New(s.options(r.seed, dir, train.WithResume(from), train.WithCallbacks(cb, train.StopAfterStep(at+1)))...)
		if err != nil {
			return nil, err
		}
		_, err = sess.Run()
		out.times = append(out.times, time.Since(t0).Seconds())
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		out.losses = append(out.losses, got)
	}
	return out, nil
}

// serveFromSnapshots snapshots the finished session, boots the serving
// Loader on the snapshot directory and checks that it answers as replica 0's
// model does.
func (s sessionSpec) serveFromSnapshots(r *run, dir string, tr *trained) error {
	eng := tr.sess.Engine()
	if err := tr.sess.Snapshot(filepath.Join(dir, fmt.Sprintf("step-%09d.ckpt", eng.StepCount()))); err != nil {
		return err
	}
	l, err := serve.NewLoader(serve.LoaderConfig{SnapshotDir: dir, Poll: -1})
	if err != nil {
		return err
	}
	defer l.Close()
	b, err := newBatcher(l)
	if err != nil {
		return err
	}
	defer b.Close()
	pool := pixels(r.seed, s.classes, s.res)
	same := true
	for _, px := range pool[:8] {
		pred, err := b.Predict(px)
		if err != nil {
			return err
		}
		want := eng.Replica(0).Model.Infer(bf16.FP32Policy, tensor.FromSlice(px, 1, 3, s.res, s.res)).Data()
		for k := range want {
			same = same && math.Float32bits(want[k]) == math.Float32bits(pred.Logits[k])
		}
	}
	r.attempted += 8
	r.check("loader_matches_replica0", same, "replies from the newest snapshot vs replica 0's Infer, logits bitwise")
	return nil
}

// overhead measures what telemetry costs on this workload: two fresh
// sessions of one seed, one with a sink, run one evaluation interval at a
// time in alternation (a further Run of a session trains on from where the
// last one stopped).
func (s sessionSpec) overhead(r *run) error {
	block := func(name string, extra ...train.Option) (func() (time.Duration, error), func() error, error) {
		extra = append(extra, train.WithCallbacks(train.StopAfterStep(s.evalEvery)))
		sess, err := train.New(s.options(r.seed, filepath.Join(r.tmp, name), extra...)...)
		if err != nil {
			return nil, nil, err
		}
		return func() (time.Duration, error) {
			t0 := time.Now()
			_, err := sess.Run()
			return time.Since(t0), err
		}, sess.Close, nil
	}
	with, closeWith, err := block("overhead-with", train.WithTelemetry(newRecords()))
	if err != nil {
		return err
	}
	defer closeWith()
	without, closeWithout, err := block("overhead-without")
	if err != nil {
		return err
	}
	defer closeWithout()
	// The first interval of each warms it up.
	for _, f := range []func() (time.Duration, error){with, without} {
		if _, err := f(); err != nil {
			return err
		}
	}
	const rounds = 3
	pct, err := pairedOverhead(rounds, with, without)
	r.set("telemetry.overhead_pct", pct, rounds)
	return err
}

// sessionLayers turns a traced session run into the train, trainloop and
// checkpoint-writer metrics, with a span per evaluation and snapshot write.
func sessionLayers(r *run, s sessionSpec, tr *trained, sink *records) {
	r.set("trainloop.eval_share", float64(tr.res.EvalWallTime)/float64(tr.res.TotalTime), len(tr.res.History))
	r.set("trainloop.evals", float64(len(tr.res.History)), len(tr.res.History))

	// The step after a snapshot capture waits for the capture; the step
	// after a plain evaluation does not. Both follow an evaluation.
	lat := tr.t.log.latenciesMS()
	var snap, plain []float64
	for i := range lat {
		switch {
		case i == 0 || i%s.evalEvery != 0:
		case i%s.snapEvery == 0:
			snap = append(snap, lat[i])
		default:
			plain = append(plain, lat[i])
		}
	}
	r.set("train.snapshot_step_stall_ms", median(snap)-median(plain), len(snap))

	var walls []float64
	for _, rec := range sink.snaps {
		walls = append(walls, ms(rec.Wall))
		if i := int(rec.Step) - 1; i >= 0 && i < tr.t.log.n() {
			start := tr.t.log.ends[i]
			r.tr.add(rootSpan, "checkpoint.write", int(rec.Step), start, start.Add(rec.Wall))
		}
	}
	r.set("checkpoint.writer_wall_ms", median(walls), len(walls))
	for i, rec := range sink.evals {
		end := sink.evalAt[i]
		r.tr.add(rootSpan, "trainloop.eval", rec.Step, end.Add(-rec.Wall), end)
	}
}

// sessionCompanion gives a traced run of a workload that does not train
// through a session its train, trainloop and checkpoint-writer numbers: two
// snapshot intervals of the lifecycle recipe at the workload's input shape,
// and one step more, so that the step after the last snapshot is seen.
func sessionCompanion(r *run, shape probeShape) error {
	defer setProcs(lifecycleProcs, lifecycleProcs)()
	s := lifecycle
	s.res, s.classes = shape.res, shape.classes
	dir := filepath.Join(r.tmp, "companion-snapshots")
	var construct []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		sess, err := train.New(s.options(shape.seed, dir)...)
		if err != nil {
			return err
		}
		construct = append(construct, ms(time.Since(t0)))
		r.tr.add(rootSpan, "train.new", 0, t0, time.Now())
		if err := sess.Close(); err != nil {
			return err
		}
	}
	r.set("train.new_ms", median(construct), setupReps)
	sink := newRecords()
	tr, err := s.train(shape.seed, dir, 2*s.snapEvery+1, false, sink)
	if err != nil {
		return err
	}
	defer tr.sess.Close()
	sessionLayers(r, s, tr, sink)
	return nil
}
