package main

import (
	"fmt"
	"sort"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/mesh"
	"effnetscale/internal/metrics"
	"effnetscale/internal/podsim"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
)

// hybridShapes are the D×M cells of the measured-vs-modeled hybrid table.
var hybridShapes = []mesh.Shape{
	{Data: 4, Model: 1},
	{Data: 2, Model: 2},
	{Data: 4, Model: 2},
}

// hybridGlobalBatch is held constant across shapes so every cell trains the
// same batch content: the model axis shards parameters, not data.
const hybridGlobalBatch = 16

// hybridCell is one measured mesh shape: the median step wall time and the
// per-rank per-step collective payload trace the model prices.
type hybridCell struct {
	shape    mesh.Shape
	measured float64
	calls    []podsim.MiniCollective
}

// measureHybridCell runs a real mesh engine for a few steps and returns the
// median step wall time plus one rank's steady-state collective trace.
func measureHybridCell(shape mesh.Shape) (hybridCell, error) {
	const warmup, reps = 2, 5
	log := &telemetry.CollectiveLog{}
	eng, err := replica.New(replica.Config{
		World:           shape.World(),
		Mesh:            shape,
		PerReplicaBatch: hybridGlobalBatch / shape.Data,
		Model:           "pico",
		Dataset:         data.New(data.MiniConfig(4, 256, 16)),
		OptimizerName:   "sgd",
		Schedule:        schedule.Constant(0.05),
		BNGroupSize:     1,
		Precision:       bf16.FP32Policy,
		Seed:            7,
		NoAugment:       true,
		Collective:      comm.InstrumentProvider(comm.RingProvider(), log),
	})
	if err != nil {
		return hybridCell{}, fmt.Errorf("mesh %s: %w", shape, err)
	}
	defer eng.Close()
	for i := 0; i < warmup; i++ {
		eng.Step()
	}
	log.Reset()
	walls := make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		eng.Step()
		walls[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(walls)

	// Every rank runs the identical lockstep program, so the full event log
	// is world × reps copies of one rank's per-step trace: regroup by
	// (op, world, bytes) and divide the counts back down.
	type key struct {
		op    comm.Op
		world int
		bytes int
	}
	counts := map[key]int{}
	for _, ev := range log.Events() {
		counts[key{ev.Op, ev.World, ev.Bytes}]++
	}
	cell := hybridCell{shape: shape, measured: walls[len(walls)/2]}
	for k, n := range counts {
		for i := 0; i < n/(shape.World()*reps); i++ {
			cell.calls = append(cell.calls, podsim.MiniCollective{
				Op:    k.op,
				Bytes: k.bytes,
				World: k.world,
			})
		}
	}
	return cell, nil
}

// printValidateHybrid measures real D×M mesh engine steps at the hybrid
// shapes and prints the per-cell error against podsim's §5 analytic hybrid
// step, calibrated to mini scale: the per-image compute cost comes from the
// measured 4×1 (pure data-parallel) cell, and every collective payload is
// priced with the α-β constants fitted to the measured ring all-reduces
// (fit) — the same constants the plain -validate table reports.
func printValidateHybrid(csv bool, fit comm.LinkParams) error {
	cells := make([]hybridCell, 0, len(hybridShapes))
	for _, shape := range hybridShapes {
		c, err := measureHybridCell(shape)
		if err != nil {
			return err
		}
		cells = append(cells, c)
	}

	// Calibrate the per-image compute cost on the first (4×1) cell: what the
	// measured step spent outside its modelled communication. The 4×1 error
	// is therefore ~0 by construction — it is the calibration point, as the
	// ring cells are for the α-β fit — and the hybrid cells test whether the
	// §5 structure (1/M compute scaling plus exchange terms) predicts the
	// shapes the model never saw.
	base, err := podsim.MiniHybridStep("pico", cells[0].shape.Data, cells[0].shape.Model,
		hybridGlobalBatch, 0, cells[0].calls, fit)
	if err != nil {
		return err
	}
	compute := cells[0].measured - base.StepSeconds()
	if compute < 0 {
		compute = 0
	}
	perImg := compute / float64(hybridGlobalBatch/cells[0].shape.Data)

	t := metrics.NewTable(
		"Measured vs modeled hybrid D×M step (pico, global batch 16; compute calibrated on 4x1)",
		"Mesh", "Replica batch", "Measured (ms)", "Modeled (ms)", "Compute (ms)", "Reduce (ms)", "MP exch (ms)", "Error %")
	for _, c := range cells {
		h, err := podsim.MiniHybridStep("pico", c.shape.Data, c.shape.Model,
			hybridGlobalBatch, perImg, c.calls, fit)
		if err != nil {
			return err
		}
		modeled := h.StepSeconds()
		errPct := 0.0
		if modeled > 0 {
			errPct = 100 * (c.measured - modeled) / modeled
		}
		t.AddRow(c.shape.String(), hybridGlobalBatch/c.shape.Data,
			round2(c.measured*1e3), round2(modeled*1e3),
			round2(h.ComputeSeconds*1e3), round2(h.AllReduceSeconds*1e3),
			round2(h.ActExchangeSeconds*1e3), round2(errPct))
	}
	emit(t, csv)
	return nil
}
