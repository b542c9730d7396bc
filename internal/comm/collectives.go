package comm

import (
	"fmt"
	"slices"
)

// The collective algorithms over a world's shared slots. Each publishes its
// buffer (publish: post, first wait, mismatch check), reads its peers' slots,
// and waits again before returning, so a peer never reads a buffer its owner
// has already handed back to the caller. The addition orders are the ones a
// hop-by-hop ring and tree use (see doc.go), which keeps results — and the
// training runs built on them — bit-identical to those algorithms.

// reduceOp names an all-reduce over element type T.
func reduceOp[T float]() Op {
	var z T
	if _, ok := any(z).(float32); ok {
		return OpAllReduce
	}
	return OpAllReduceF64
}

// ringAllReduce sums buf element-wise across all ranks; on return every
// rank's buf holds the identical total. It is the ring's reduce-scatter
// followed by its all-gather: rank r folds chunk (r+1) mod n, then every
// rank copies each chunk from the rank that folded it.
func ringAllReduce[T float](p *peer, buf []T) {
	if p.w.n == 1 {
		return
	}
	foldChunk(p, reduceOp[T](), buf)
	gatherChunks(p, buf)
}

// foldChunk publishes buf and sums chunk c = (rank+1) mod n (bounds per
// chunkBounds) of every rank's buffer into this rank's scratch, in ring
// order: x_c, then + x_{c+1}, …, + x_{c+n−1}, indices mod n — the order in
// which the n−1 reduce-scatter hops of a ring add them. It returns the
// scratch chunk. Peers are still reading buf, so the caller waits on the
// world once more (gatherChunks does) before returning.
func foldChunk[T float](p *peer, op Op, buf []T) []T {
	publish(p, op, buf, nil)
	n := p.w.n
	c := (p.rank + 1) % n
	lo, hi := chunkBounds(len(buf), n, c)
	acc := scratch[T](p, hi-lo)
	chunk := func(k int) []T { return laneOf[T](&p.w.slots[(c+k)%n]).buf[lo:hi][:len(acc)] }
	copy(acc, chunk(0))
	// Three sources per pass load and store acc a third as often; each
	// element still adds one source at a time, left to right.
	k := 1
	for ; k+3 <= n; k += 3 {
		a, b, d := chunk(k), chunk(k+1), chunk(k+2)
		for i := range acc {
			acc[i] = acc[i] + a[i] + b[i] + d[i]
		}
	}
	for ; k < n; k++ {
		a := chunk(k)
		for i := range acc {
			acc[i] += a[i]
		}
	}
	return acc
}

// gatherChunks is the second half of a ring all-reduce: it waits until every
// rank has folded its chunk, then copies chunk j of the total from the
// scratch of rank (j−1) mod n into buf. Peers read buf only before this
// wait, and read this rank's scratch only after it — until their next call's
// first wait, which this rank cannot pass before they arrive.
func gatherChunks[T float](p *peer, buf []T) {
	p.w.bar.wait()
	n := p.w.n
	for j := 0; j < n; j++ {
		lo, hi := chunkBounds(len(buf), n, j)
		copy(buf[lo:hi], laneOf[T](&p.w.slots[(j-1+n)%n]).scratch)
	}
}

// allGather concatenates every rank's local slice into out, ordered by rank.
// len(out) must equal the world size × len(local).
func allGather(p *peer, local, out []float32) {
	n := p.w.n
	l := len(local)
	if len(out) != n*l {
		panic("comm: all-gather output length must be world × local length")
	}
	if n == 1 {
		copy(out, local)
		return
	}
	publish(p, OpAllGather, local, nil)
	for j := 0; j < n; j++ {
		copy(out[j*l:(j+1)*l], laneOf[float32](&p.w.slots[j]).buf)
	}
	p.w.bar.wait()
}

// allGatherInPlace copies every rank j's span buf[bounds[j]:bounds[j+1]]
// into the same span of every other rank's buf. All ranks must pass buffers
// of the same length and the same bounds: world size + 1 ascending offsets
// inside buf. Spans are disjoint, so a rank writes only outside its own span
// while its peers read only inside it, and no staging buffer is needed.
func allGatherInPlace(p *peer, buf []float32, bounds []int) {
	n := p.w.n
	if n > 1 {
		// Publish first: ranks that disagree on the bounds fail the check
		// together, and past it every rank judges the same bounds.
		publish(p, OpAllGatherInPlace, buf, bounds)
	}
	if len(bounds) != n+1 || bounds[0] < 0 || bounds[n] > len(buf) || !slices.IsSorted(bounds) {
		panic(fmt.Sprintf("comm: all-gather bounds %v are not %d ascending offsets within a buffer of %d", bounds, n+1, len(buf)))
	}
	if n == 1 {
		return
	}
	for j := 0; j < n; j++ {
		if j != p.rank {
			lo, hi := bounds[j], bounds[j+1]
			copy(buf[lo:hi], laneOf[float32](&p.w.slots[j]).buf[lo:hi])
		}
	}
	p.w.bar.wait()
}

// treeAllReduce sums buf across all ranks by recursive doubling: log2(n)
// rounds, each adding the full payload of the partner at distance 2^round.
// It moves O(log n) full payloads per rank, beating the ring for small
// latency-bound payloads. Rounds alternate between buf and this rank's
// scratch — a round reads the partner's previous result while writing its
// own into the other buffer — with one wait per round. Non-power-of-two
// worlds fall back to the ring (reported by Tree.Algorithm as a ring
// fallback); returns true when the tree actually ran.
func treeAllReduce[T float](p *peer, buf []T) bool {
	n := p.w.n
	if n == 1 {
		return true
	}
	if n&(n-1) != 0 {
		ringAllReduce(p, buf)
		return false
	}
	publish(p, reduceOp[T](), buf, nil)
	src, dst := buf, scratch[T](p, len(buf))
	inScratch := false // whether src is the scratch
	for dist := 1; dist < n; dist <<= 1 {
		theirs := laneOf[T](&p.w.slots[p.rank^dist])
		in := theirs.buf
		if inScratch {
			in = theirs.scratch
		}
		in = in[:len(dst)]
		for i := range dst {
			dst[i] = src[i] + in[i]
		}
		p.w.bar.wait()
		src, dst = dst, src
		inScratch = !inScratch
	}
	if inScratch {
		copy(buf, src)
	}
	return true
}
