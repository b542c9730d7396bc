package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"effnetscale/internal/comm"
	"effnetscale/internal/topology"
)

// CollectiveLog is a comm.Observer that retains every event — the capture
// side of the measured-vs-modeled validation (and a handy test double).
// Safe for concurrent use.
type CollectiveLog struct {
	mu     sync.Mutex
	events []comm.Event
}

// Collective implements comm.Observer.
func (l *CollectiveLog) Collective(ev comm.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events, in completion order (events
// from one rank appear in that rank's call order).
func (l *CollectiveLog) Events() []comm.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]comm.Event, len(l.events))
	copy(out, l.events)
	return out
}

// Reset discards the recorded events.
func (l *CollectiveLog) Reset() {
	l.mu.Lock()
	l.events = nil
	l.mu.Unlock()
}

// ValidationConfig parameterizes ValidateCommModel. The zero value selects
// the defaults the acceptance table uses: ring, tree and torus2d at world
// sizes 4, 8 and 16 over three payload sizes.
type ValidationConfig struct {
	// Worlds are the world sizes to measure (default 4, 8, 16).
	Worlds []int
	// PayloadBytes are the all-reduce payload sizes (default 64 KiB, 512 KiB,
	// 2 MiB).
	PayloadBytes []int
	// Reps is the number of timed repetitions per point; the median is kept
	// (default 9).
	Reps int
	// Warmup repetitions are run and discarded before timing starts.
	// 0 selects the default of 3; pass a negative value for no warmup.
	Warmup int
}

func (c *ValidationConfig) defaults() {
	if len(c.Worlds) == 0 {
		c.Worlds = []int{4, 8, 16}
	}
	if len(c.PayloadBytes) == 0 {
		c.PayloadBytes = []int{64 << 10, 512 << 10, 2 << 20}
	}
	if c.Reps < 1 {
		c.Reps = 9
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = 3
	}
}

// ValidationPoint is one (algorithm, world, payload) cell of the
// measured-vs-modeled table.
type ValidationPoint struct {
	// Provider is the provider family (ring, tree, torus2d).
	Provider string
	// Algorithm is the concrete algorithm the executable collective reported
	// (e.g. "torus2d(2x4)").
	Algorithm string
	World     int
	Bytes     int
	// MeasuredSeconds is the median measured wall time of one all-reduce
	// (max across ranks per repetition — the lockstep critical path).
	MeasuredSeconds float64
	// ModeledSeconds prices the identical algorithm via
	// Provider.ModelAllReduce under the fitted link parameters.
	ModeledSeconds float64
	// ErrorPct is 100 × (measured − modeled) / modeled.
	ErrorPct float64
}

// Validation is the result of a measured-vs-modeled run.
type Validation struct {
	// Fit holds the α-β link parameters least-squares-fitted to the measured
	// ring points. The ring is the calibration set — its cost formula is the
	// model's simplest — and every other algorithm/world/payload cell is
	// then a prediction of the model's *structure* under those two
	// constants, which is the claim the cost model makes.
	Fit comm.LinkParams
	// Points holds every measured cell, in (provider, world, bytes) order.
	Points []ValidationPoint
	// MeanAbsErrPct aggregates |ErrorPct| per provider family.
	MeanAbsErrPct map[string]float64
}

// ValidateCommModel measures the executable collectives (goroutine ranks
// over shared slots — the same code mini-scale training runs) and replays each
// measurement against the α-β cost model that motivates comm.Auto's
// algorithm choice: it fits the model's two constants to the measured ring
// points, prices every (algorithm, world, payload) cell with
// Provider.ModelAllReduce under the fitted constants, and reports the
// per-cell relative error. Large errors on tree or torus cells mean the
// model mis-ranks algorithms on this transport; small errors mean the
// α-β structure transfers.
func ValidateCommModel(cfg ValidationConfig) (*Validation, error) {
	cfg.defaults()
	providers := []comm.Provider{
		comm.RingProvider(),
		comm.TreeProvider(),
		comm.Torus2DProvider(topology.Slice{}),
	}

	type cell struct {
		prov     comm.Provider
		world    int
		bytes    int
		measured float64
		alg      string
	}
	var cells []cell
	for _, prov := range providers {
		for _, n := range cfg.Worlds {
			for _, bytes := range cfg.PayloadBytes {
				measured, alg, err := measureAllReduce(prov, n, bytes, cfg.Warmup, cfg.Reps)
				if err != nil {
					return nil, fmt.Errorf("telemetry: validate %s n=%d: %w", prov.Name(), n, err)
				}
				cells = append(cells, cell{prov, n, bytes, measured, alg})
			}
		}
	}

	// Fit α (latency) and 1/β (inverse bandwidth) to the ring cells:
	// t = x1·(1/β) + x2·α with x1 = 2(n−1)/n·B and x2 = 2(n−1). Each
	// equation is weighted by 1/t so the fit minimizes *relative* error —
	// the quantity the table reports — instead of letting the
	// largest-payload cells dominate in absolute terms.
	var s11, s12, s22, b1, b2 float64
	for _, c := range cells {
		if c.prov.Name() != "ring" || c.measured <= 0 {
			continue
		}
		w := 1 / c.measured
		x1 := 2 * float64(c.world-1) / float64(c.world) * float64(c.bytes) * w
		x2 := 2 * float64(c.world-1) * w
		t := c.measured * w // 1, by construction
		s11 += x1 * x1
		s12 += x1 * x2
		s22 += x2 * x2
		b1 += x1 * t
		b2 += x2 * t
	}
	det := s11*s22 - s12*s12
	invBW, alpha := 0.0, 0.0
	if det != 0 {
		invBW = (b1*s22 - b2*s12) / det
		alpha = (b2*s11 - b1*s12) / det
	}
	// Degenerate fits (a transport where one term dominates can drive the
	// other slightly negative) are clamped to the single-term solution.
	if invBW <= 0 && s11 > 0 {
		invBW = b1 / s11
		alpha = 0
	}
	if alpha < 0 {
		alpha = 0
		if s11 > 0 {
			invBW = b1 / s11
		}
	}
	if invBW <= 0 {
		return nil, fmt.Errorf("telemetry: validate: degenerate bandwidth fit (no usable ring measurements)")
	}
	fit := comm.LinkParams{BandwidthGBs: 1 / (invBW * 1e9), LatencyUS: alpha * 1e6}

	v := &Validation{Fit: fit, MeanAbsErrPct: map[string]float64{}}
	counts := map[string]int{}
	for _, c := range cells {
		modeled, _ := c.prov.ModelAllReduce(c.bytes, c.world, fit)
		pt := ValidationPoint{
			Provider:        c.prov.Name(),
			Algorithm:       c.alg,
			World:           c.world,
			Bytes:           c.bytes,
			MeasuredSeconds: c.measured,
			ModeledSeconds:  modeled,
		}
		if modeled > 0 {
			pt.ErrorPct = 100 * (c.measured - modeled) / modeled
		}
		v.Points = append(v.Points, pt)
		abs := pt.ErrorPct
		if abs < 0 {
			abs = -abs
		}
		v.MeanAbsErrPct[pt.Provider] += abs
		counts[pt.Provider]++
	}
	for k := range v.MeanAbsErrPct {
		v.MeanAbsErrPct[k] /= float64(counts[k])
	}
	return v, nil
}

// measureAllReduce runs warmup+reps lockstep all-reduces of the payload on a
// fresh instrumented world and returns the median per-op wall time (max
// across ranks per repetition) and the concrete algorithm that ran.
func measureAllReduce(prov comm.Provider, n, bytes, warmup, reps int) (float64, string, error) {
	log := &CollectiveLog{}
	colls, err := comm.InstrumentProvider(prov, log).Connect(n)
	if err != nil {
		return 0, "", err
	}
	words := bytes / 4
	if words < 1 {
		words = 1
	}
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, words)
		for i := range bufs[r] {
			bufs[r][i] = float32(r + i)
		}
	}
	total := warmup + reps
	var wg sync.WaitGroup
	for _, c := range colls {
		wg.Add(1)
		go func(c comm.Collective) {
			defer wg.Done()
			for i := 0; i < total; i++ {
				c.AllReduce(bufs[c.Rank()])
			}
		}(c)
	}
	wg.Wait()

	// Events interleave across ranks but each rank's are in call order;
	// regroup per rank, then take the per-repetition critical path.
	perRank := make([][]time.Duration, n)
	alg := ""
	for _, ev := range log.Events() {
		perRank[ev.Rank] = append(perRank[ev.Rank], ev.Elapsed)
		alg = ev.Algorithm
	}
	walls := make([]float64, 0, reps)
	for i := warmup; i < total; i++ {
		var maxD time.Duration
		for r := 0; r < n; r++ {
			if i >= len(perRank[r]) {
				return 0, "", fmt.Errorf("rank %d recorded %d events, want %d", r, len(perRank[r]), total)
			}
			if perRank[r][i] > maxD {
				maxD = perRank[r][i]
			}
		}
		walls = append(walls, maxD.Seconds())
	}
	sort.Float64s(walls)
	return walls[len(walls)/2], alg, nil
}
