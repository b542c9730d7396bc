package telemetry

import (
	"testing"
	"time"

	"effnetscale/internal/comm"
)

// TestCollectiveLog verifies the observer records per-rank events in call
// order through real instrumented collectives.
func TestCollectiveLog(t *testing.T) {
	log := &CollectiveLog{}
	colls, err := comm.InstrumentProvider(comm.RingProvider(), log).Connect(3)
	if err != nil {
		t.Fatal(err)
	}
	bufs := [][]float32{{1}, {2}, {3}}
	bufs64 := [][]float64{{1}, {2}, {3}}
	done := make(chan struct{})
	for _, c := range colls {
		go func(c comm.Collective) {
			c.AllReduce(bufs[c.Rank()])
			c.AllReduceF64(bufs64[c.Rank()])
			done <- struct{}{}
		}(c)
	}
	for range colls {
		<-done
	}
	evs := log.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6 (3 ranks × allreduce+allreduce_f64)", len(evs))
	}
	seen := map[int][]comm.Op{}
	for _, ev := range evs {
		if ev.World != 3 {
			t.Fatalf("event world = %d, want 3", ev.World)
		}
		seen[ev.Rank] = append(seen[ev.Rank], ev.Op)
	}
	for r := 0; r < 3; r++ {
		ops := seen[r]
		if len(ops) != 2 || ops[0] != comm.OpAllReduce || ops[1] != comm.OpAllReduceF64 {
			t.Fatalf("rank %d ops = %v, want [allreduce allreduce_f64]", r, ops)
		}
	}
	if bufs[0][0] != 6 {
		t.Fatalf("instrumented all-reduce result = %v, want 6", bufs[0][0])
	}
	log.Reset()
	if len(log.Events()) != 0 {
		t.Fatal("Reset did not clear events")
	}
}

// TestValidateCommModelSmall runs the measured-vs-modeled harness at reduced
// scale and checks its structural guarantees: full cell coverage, a positive
// bandwidth fit, modeled times from the fitted parameters, and consistent
// error arithmetic.
func TestValidateCommModelSmall(t *testing.T) {
	v, err := ValidateCommModel(ValidationConfig{
		Worlds:       []int{2, 4},
		PayloadBytes: []int{8 << 10, 128 << 10},
		Reps:         3,
		Warmup:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Fit.BandwidthGBs <= 0 {
		t.Fatalf("fitted bandwidth %g must be > 0", v.Fit.BandwidthGBs)
	}
	if v.Fit.LatencyUS < 0 {
		t.Fatalf("fitted latency %g must be >= 0", v.Fit.LatencyUS)
	}
	// 3 providers × 2 worlds × 2 payloads.
	if len(v.Points) != 12 {
		t.Fatalf("got %d points, want 12", len(v.Points))
	}
	for _, p := range v.Points {
		if p.MeasuredSeconds <= 0 {
			t.Fatalf("%s n=%d B=%d: measured %g must be > 0", p.Provider, p.World, p.Bytes, p.MeasuredSeconds)
		}
		if p.ModeledSeconds <= 0 {
			t.Fatalf("%s n=%d B=%d: modeled %g must be > 0", p.Provider, p.World, p.Bytes, p.ModeledSeconds)
		}
		wantErr := 100 * (p.MeasuredSeconds - p.ModeledSeconds) / p.ModeledSeconds
		if diff := p.ErrorPct - wantErr; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s n=%d: ErrorPct %g, want %g", p.Provider, p.World, p.ErrorPct, wantErr)
		}
		if p.Algorithm == "" {
			t.Fatalf("%s n=%d: empty resolved algorithm", p.Provider, p.World)
		}
	}
	for _, name := range []string{"ring", "tree", "torus2d"} {
		if _, ok := v.MeanAbsErrPct[name]; !ok {
			t.Fatalf("missing mean error for %s", name)
		}
	}
}

// TestValidationConfigDefaults pins the acceptance-table coverage: ring,
// tree and torus2d at world sizes 4, 8 and 16.
func TestValidationConfigDefaults(t *testing.T) {
	var cfg ValidationConfig
	cfg.defaults()
	if got, want := cfg.Worlds, []int{4, 8, 16}; len(got) != len(want) || got[0] != 4 || got[1] != 8 || got[2] != 16 {
		t.Fatalf("default worlds = %v, want %v", got, want)
	}
	if len(cfg.PayloadBytes) == 0 || cfg.Reps < 1 || cfg.Warmup < 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestMeasureAllReduceEventCount checks the per-repetition critical-path
// regrouping sees exactly warmup+reps events per rank.
func TestMeasureAllReduceEventCount(t *testing.T) {
	med, alg, err := measureAllReduce(comm.TreeProvider(), 4, 4<<10, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if med <= 0 || med > float64(time.Second/time.Nanosecond) {
		t.Fatalf("median = %g s", med)
	}
	if alg != "tree" {
		t.Fatalf("algorithm = %q, want tree", alg)
	}
}
