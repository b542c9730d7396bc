package comm

import (
	"time"

	"effnetscale/internal/topology"
)

// Op identifies a collective operation in an observed Event.
type Op string

// The collective operations an instrumented endpoint reports.
const (
	OpAllReduce        Op = "allreduce"
	OpAllReduceF64     Op = "allreduce_f64"
	OpAllGather        Op = "allgather"
	OpAllGatherInPlace Op = "allgather_inplace"
	OpReduceScatter    Op = "reduce_scatter"
	OpBroadcast        Op = "broadcast"
	OpBarrier          Op = "barrier"
)

// Event is one observed collective call on one rank: which operation ran,
// which concrete algorithm carried it (Auto resolves its per-call choice),
// the local payload size, and the rank's wall-clock time inside the call.
// Because collectives are lockstep, a rank's elapsed time includes any wait
// for peers to enter the call — it is the collective's cost as seen from
// that rank's critical path, which is exactly what step accounting wants.
type Event struct {
	Op        Op
	Algorithm string
	Rank      int
	World     int
	// Bytes is the local payload size: len(buf) × element size for
	// reductions and broadcast, the gathered output size for the
	// all-gathers (every rank's span, for the in-place one), 0 for barriers.
	Bytes   int
	Elapsed time.Duration
}

// Observer receives collective events from instrumented endpoints. Every
// rank of an instrumented world reports through the same Observer from its
// own goroutine, so implementations must be safe for concurrent use and
// should be cheap — the observer sits on the gradient-reduction hot path.
type Observer interface {
	Collective(Event)
}

// Instrument wraps c so that every collective call is timed and reported to
// obs. A nil obs returns c unchanged, so call sites can wrap
// unconditionally. The wrapper delegates Rank/WorldSize/Algorithm untouched;
// per-call algorithm choosers (Auto) keep their ChooseFor introspection via
// the event's Algorithm field, which records the algorithm that actually
// carried each payload.
func Instrument(c Collective, obs Observer) Collective {
	if obs == nil {
		return c
	}
	return &instrumented{c: c, obs: obs}
}

// InstrumentProvider returns a Provider whose Connect wraps every endpoint
// with Instrument(…, obs) — one call instruments the gradient world and
// every BN-group world the consumer builds from the same provider. The cost
// model half (ModelAllReduce) is untouched: pricing an algorithm is not a
// collective call.
func InstrumentProvider(p Provider, obs Observer) Provider {
	if obs == nil || p.IsZero() {
		return p
	}
	inner := p.connect
	p.connect = func(n int, slice topology.Slice) ([]Collective, error) {
		colls, err := inner(n, slice)
		if err != nil {
			return nil, err
		}
		for i := range colls {
			colls[i] = Instrument(colls[i], obs)
		}
		return colls, nil
	}
	return p
}

// chooser is the optional per-call algorithm introspection Auto implements.
type chooser interface {
	ChooseFor(bytes int) string
}

type instrumented struct {
	c   Collective
	obs Observer
}

// algorithmFor resolves the concrete algorithm an all-reduce of the given
// payload runs — Auto's per-call choice when the wrapped collective is Auto,
// the endpoint's fixed algorithm otherwise.
func (in *instrumented) algorithmFor(bytes int) string {
	if ch, ok := in.c.(chooser); ok {
		return ch.ChooseFor(bytes)
	}
	return in.c.Algorithm()
}

func (in *instrumented) emit(op Op, alg string, bytes int, start time.Time) {
	in.obs.Collective(Event{
		Op:        op,
		Algorithm: alg,
		Rank:      in.c.Rank(),
		World:     in.c.WorldSize(),
		Bytes:     bytes,
		Elapsed:   time.Since(start),
	})
}

// Rank implements Collective.
func (in *instrumented) Rank() int { return in.c.Rank() }

// WorldSize implements Collective.
func (in *instrumented) WorldSize() int { return in.c.WorldSize() }

// Algorithm implements Collective.
func (in *instrumented) Algorithm() string { return in.c.Algorithm() }

// AllReduce implements Collective.
func (in *instrumented) AllReduce(buf []float32) {
	bytes := 4 * len(buf)
	alg := in.algorithmFor(bytes)
	start := time.Now()
	in.c.AllReduce(buf)
	in.emit(OpAllReduce, alg, bytes, start)
}

// AllReduceF64 implements Collective.
func (in *instrumented) AllReduceF64(buf []float64) {
	bytes := 8 * len(buf)
	alg := in.algorithmFor(bytes)
	start := time.Now()
	in.c.AllReduceF64(buf)
	in.emit(OpAllReduceF64, alg, bytes, start)
}

// AllGather implements Collective.
func (in *instrumented) AllGather(local, out []float32) {
	start := time.Now()
	in.c.AllGather(local, out)
	in.emit(OpAllGather, in.c.Algorithm(), 4*len(out), start)
}

// AllGatherInPlace implements Collective.
func (in *instrumented) AllGatherInPlace(buf []float32, bounds []int) {
	start := time.Now()
	in.c.AllGatherInPlace(buf, bounds)
	in.emit(OpAllGatherInPlace, in.c.Algorithm(), 4*(bounds[len(bounds)-1]-bounds[0]), start)
}

// ReduceScatter implements Collective.
func (in *instrumented) ReduceScatter(buf []float32) []float32 {
	start := time.Now()
	got := in.c.ReduceScatter(buf)
	in.emit(OpReduceScatter, in.c.Algorithm(), 4*len(buf), start)
	return got
}

// Broadcast implements Collective.
func (in *instrumented) Broadcast(buf []float32, root int) {
	start := time.Now()
	in.c.Broadcast(buf, root)
	in.emit(OpBroadcast, in.c.Algorithm(), 4*len(buf), start)
}

// Barrier implements Collective.
func (in *instrumented) Barrier() {
	start := time.Now()
	in.c.Barrier()
	in.emit(OpBarrier, in.c.Algorithm(), 0, start)
}
