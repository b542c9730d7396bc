package main

// The registry is the harness's own statement of what it prints.
// BENCHMARK.json at the repo root repeats the workload and metric names for
// the driver; bench_test.go checks that the two agree.

const (
	higher = "higher"
	lower  = "lower"
)

// metricDef names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 on per-layer metrics).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string
	Why  string
	run  func(*run) error
}

// nominalSeconds is the --seconds value the fixed work is sized for: every
// step and request count is a constant times seconds, chosen so that the
// timed part of each workload takes about that long on the seed commit.
const nominalSeconds = 20

var workloads = []workloadDef{
	{"train_compute", "one replica, batch 32, one proc: kernels and activation memory do ~90% of the step, comm and rank scheduling almost nothing", runTrainCompute},
	{"train_sync", "eight replicas, batch 2, BN group 8, one proc: ~390 collectives per 16-image step, the step is rank hand-offs and allocation, not arithmetic", runTrainSync},
	{"serve_rates", "batched tape-free inference under open-loop Poisson arrivals at two rates, and a closed-loop backlog: same kernels, different use", runServeRates},
	{"tta_lifecycle", "paper recipe (LARS, bf16, dist. eval, async snapshots) trained to a target accuracy, then resumed and served from what it wrote", runLifecycle},
}

// endToEnd lists the metrics a user of the stack sees. Every workload prints
// every one; README.md gives the reading of each on each workload. An
// "operation" is one call a client makes: Engine.Step on the training
// workloads, Batcher.Predict on serve_rates.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"img_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_img", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"tta_s", "s", lower, 0.25},
	{"steps_to_target", "steps", lower, 0.25},
	{"resume_s", "s", lower, 0.25},
	{"lat_p50_ms", "ms", lower, 0.25},
	{"idle_lat_p50_ms", "ms", lower, 0.25},
	{"sat_req_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_req", "ms", lower, 0.25},
}

// perLayer lists the single-layer metrics of the traced run, grouped by the
// package they measure. They carry no bound.
var perLayer = []metricDef{
	{"tensor.gemm_gflops", "GFLOP/s", higher, 0},
	{"tensor.conv1x1_fwd_us", "us", lower, 0},
	{"tensor.conv1x1_bwd_us", "us", lower, 0},
	{"tensor.conv3x3_fwd_us", "us", lower, 0},
	{"tensor.conv3x3_bwd_us", "us", lower, 0},
	{"tensor.depthwise_fwd_us", "us", lower, 0},
	{"tensor.depthwise_bwd_us", "us", lower, 0},
	{"tensor.kernel_allocs_per_call", "count", lower, 0},
	{"tensor.conv_flops_per_img", "MFLOP", lower, 0},
	{"tensor.conv_bytes_per_img", "KB", lower, 0},

	{"parallel.speedup_p2", "x", higher, 0},
	{"parallel.cpu_inflation_p2", "x", lower, 0},

	{"efficientnet.forward_ms", "ms", lower, 0},
	{"efficientnet.backward_ms", "ms", lower, 0},
	{"efficientnet.fwdbwd_allocs", "count", lower, 0},
	{"efficientnet.fwdbwd_alloc_kb", "KB", lower, 0},
	{"efficientnet.infer_b1_ms", "ms", lower, 0},
	{"efficientnet.infer_b32_ms", "ms", lower, 0},
	{"efficientnet.infer_allocs", "count", lower, 0},
	{"nn.batchnorm_fwd_us", "us", lower, 0},
	{"autograd.swish_fwd_us", "us", lower, 0},

	{"optim.sgd_step_us", "us", lower, 0},
	{"optim.lars_step_us", "us", lower, 0},

	{"data.render_us_per_img", "us", lower, 0},
	{"data.next_us_p50", "us", lower, 0},
	{"data.starved_per_100_steps", "count", lower, 0},

	{"comm.allreduce_32k_w8_us", "us", lower, 0},
	{"comm.allreduce_256b_w8_us", "us", lower, 0},
	{"comm.calls_per_step", "count", lower, 0},
	{"comm.bytes_per_step", "B", lower, 0},
	{"comm.busy_share", "share", lower, 0},

	{"replica.step_p50_ms", "ms", lower, 0},
	{"replica.step_tail_ms", "ms", lower, 0},
	{"replica.data_wait_ms", "ms", lower, 0},
	{"replica.forward_ms", "ms", lower, 0},
	{"replica.backward_ms", "ms", lower, 0},
	{"replica.reduce_ms", "ms", lower, 0},
	{"replica.reduce_tail_ms", "ms", lower, 0},
	{"replica.optimizer_ms", "ms", lower, 0},
	{"replica.self_ms", "ms", lower, 0},
	{"replica.overlap_eff", "share", higher, 0},
	{"replica.allocs_per_step", "count", lower, 0},
	{"replica.alloc_kb_per_step", "KB", lower, 0},
	{"replica.gc_per_100_steps", "count", lower, 0},
	{"replica.new_ms", "ms", lower, 0},
	{"replica.first_step_ms", "ms", lower, 0},
	{"replica.evaluate_ms", "ms", lower, 0},
	{"replica.capture_state_ms", "ms", lower, 0},

	{"train.new_ms", "ms", lower, 0},
	{"trainloop.eval_share", "share", lower, 0},
	{"trainloop.evals", "count", lower, 0},
	{"train.snapshot_step_stall_ms", "ms", lower, 0},

	{"checkpoint.write_ms", "ms", lower, 0},
	{"checkpoint.read_ms", "ms", lower, 0},
	{"checkpoint.snapshot_kb", "KB", lower, 0},
	{"checkpoint.writer_wall_ms", "ms", lower, 0},

	{"serve.queue_wait_p50_ms", "ms", lower, 0},
	{"serve.infer_ms_p50", "ms", lower, 0},
	{"serve.lat_tail_ms", "ms", lower, 0},
	{"serve.avg_batch_lo", "count", higher, 0},
	{"serve.avg_batch_hi", "count", higher, 0},
	{"serve.avg_batch_sat", "count", higher, 0},
	{"serve.slo_miss_share", "share", lower, 0},
	{"serve.shed_share", "share", lower, 0},
	{"serve.allocs_per_req", "count", lower, 0},
	{"serve.gen_lag_p99_ms", "ms", lower, 0},
	{"serve.loader_boot_ms", "ms", lower, 0},
	{"serve.reload_ms", "ms", lower, 0},

	{"telemetry.overhead_pct", "%", lower, 0},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
