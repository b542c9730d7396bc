package data

import (
	"math"
	"math/rand"

	"effnetscale/internal/parallel"
	"effnetscale/internal/tensor"
)

// ImageNet canonical split sizes.
const (
	ImageNetTrainSize  = 1281167
	ImageNetValSize    = 50000
	ImageNetNumClasses = 1000
)

// Config parameterizes a SynthImageNet instance.
type Config struct {
	NumClasses int
	TrainSize  int
	ValSize    int
	Resolution int
	// NoiseStd is the per-pixel Gaussian corruption; higher is harder.
	NoiseStd float64
	// Seed fixes the entire dataset deterministically.
	Seed int64
}

// ImageNetConfig returns the full-size virtual dataset at the given
// resolution (what the pod-scale simulation accounts against).
func ImageNetConfig(resolution int) Config {
	return Config{
		NumClasses: ImageNetNumClasses,
		TrainSize:  ImageNetTrainSize,
		ValSize:    ImageNetValSize,
		Resolution: resolution,
		NoiseStd:   0.25,
		Seed:       1,
	}
}

// MiniConfig returns a small, quickly learnable dataset for real CPU
// training in tests and examples.
func MiniConfig(numClasses, trainSize, resolution int) Config {
	return Config{
		NumClasses: numClasses,
		TrainSize:  trainSize,
		ValSize:    trainSize / 4,
		Resolution: resolution,
		NoiseStd:   0.25,
		Seed:       1,
	}
}

// classProto holds the procedural parameters defining one class.
type classProto struct {
	theta   float64    // texture orientation
	freq    float64    // texture frequency (cycles per image)
	phase   [3]float64 // per-channel phase
	amp     [3]float64 // per-channel texture amplitude
	blobX   float64    // blob center (relative)
	blobY   float64
	blobSig float64    // blob width (relative)
	blobCol [3]float64 // blob color
}

// Dataset is a deterministic synthetic image-classification dataset.
type Dataset struct {
	cfg    Config
	protos []classProto
}

// New builds the dataset, materializing only the per-class prototypes.
func New(cfg Config) *Dataset {
	if cfg.NumClasses < 2 {
		panic("data: need at least 2 classes")
	}
	if cfg.Resolution < 8 {
		panic("data: resolution must be >= 8")
	}
	d := &Dataset{cfg: cfg, protos: make([]classProto, cfg.NumClasses)}
	for c := range d.protos {
		rng := rand.New(rand.NewSource(cfg.Seed*1e9 + int64(c)))
		p := &d.protos[c]
		p.theta = rng.Float64() * math.Pi
		p.freq = 2 + rng.Float64()*4
		for k := 0; k < 3; k++ {
			p.phase[k] = rng.Float64() * 2 * math.Pi
			p.amp[k] = 0.4 + rng.Float64()*0.6
			p.blobCol[k] = 1.5 * (1 - 2*rng.Float64())
		}
		p.blobX = 0.25 + 0.5*rng.Float64()
		p.blobY = 0.25 + 0.5*rng.Float64()
		p.blobSig = 0.15 + 0.15*rng.Float64()
	}
	return d
}

// Config returns the dataset configuration.
func (d *Dataset) Config() Config { return d.cfg }

// TrainLabel returns the label of training image idx. Labels cycle through
// classes so every shard sees a balanced class mix.
func (d *Dataset) TrainLabel(idx int) int { return idx % d.cfg.NumClasses }

// sampleSeed derives the per-image RNG seed. split 0=train, 1=val.
func (d *Dataset) sampleSeed(split, idx int) int64 {
	return d.cfg.Seed*1e12 + int64(split)*1e10 + int64(idx)
}

// Render synthesizes image idx of the given split (0=train, 1=val) into dst,
// a [3, R, R] slice of a batch tensor's storage, and returns the label.
// Pixels are approximately zero-mean with unit-order variance.
func (d *Dataset) Render(split, idx int, dst []float32) int {
	r := d.cfg.Resolution
	if len(dst) != 3*r*r {
		panic("data: Render destination has wrong size")
	}
	label := idx % d.cfg.NumClasses
	p := &d.protos[label]
	rng := rand.New(rand.NewSource(d.sampleSeed(split, idx)))

	// Per-image intrinsic variation: translation, frequency jitter and
	// amplitude jitter — the "pose" variance a real dataset would have.
	dx := (rng.Float64() - 0.5) * 0.12
	dy := (rng.Float64() - 0.5) * 0.12
	freq := p.freq * (0.95 + 0.1*rng.Float64())
	ampJit := 0.9 + 0.2*rng.Float64()

	ct, st := math.Cos(p.theta), math.Sin(p.theta)
	bx, by := p.blobX+dx, p.blobY+dy
	inv2sig2 := 1 / (2 * p.blobSig * p.blobSig)
	noise := d.cfg.NoiseStd

	for y := 0; y < r; y++ {
		fy := float64(y)/float64(r) + dy
		for x := 0; x < r; x++ {
			fx := float64(x)/float64(r) + dx
			t := 2 * math.Pi * freq * (fx*ct + fy*st)
			gx := float64(x)/float64(r) - bx
			gy := float64(y)/float64(r) - by
			blob := math.Exp(-(gx*gx + gy*gy) * inv2sig2)
			for k := 0; k < 3; k++ {
				v := ampJit*p.amp[k]*math.Sin(t+p.phase[k]) + p.blobCol[k]*blob
				v += rng.NormFloat64() * noise
				dst[k*r*r+y*r+x] = float32(v)
			}
		}
	}
	return label
}

// FillBatch renders the images with the given indices of a split into batch
// (shape [N,3,R,R]) and writes their labels. len(indices) must equal
// len(labels) and must not exceed N; a shorter index list renders a ragged
// prefix and leaves the batch tail untouched. Samples render in parallel
// (each image is an independent, per-sample-seeded computation, so the
// result is deterministic regardless of scheduling).
func (d *Dataset) FillBatch(split int, indices []int, batch *tensor.Tensor, labels []int) {
	n, c, h, w := batch.Dim4()
	if c != 3 || h != d.cfg.Resolution || w != d.cfg.Resolution {
		panic("data: FillBatch tensor shape mismatch")
	}
	if len(indices) != len(labels) || len(indices) > n {
		panic("data: FillBatch index/label length mismatch")
	}
	img := 3 * h * w
	parallel.ForChunked(len(indices), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			labels[i] = d.Render(split, indices[i], batch.Data()[i*img:(i+1)*img])
		}
	})
}

// Augment applies random horizontal flips and ±shift crops in place to a
// training batch. rng drives the randomness (per replica, seeded).
func Augment(batch *tensor.Tensor, rng *rand.Rand) {
	n, c, h, w := batch.Dim4()
	plane := h * w
	tmp := make([]float32, plane)
	for s := 0; s < n; s++ {
		flip := rng.Intn(2) == 1
		shiftX := rng.Intn(5) - 2 // ±2 pixel jitter
		shiftY := rng.Intn(5) - 2
		for ch := 0; ch < c; ch++ {
			pl := batch.Data()[(s*c+ch)*plane : (s*c+ch+1)*plane]
			copy(tmp, pl)
			for y := 0; y < h; y++ {
				sy := y + shiftY
				if sy < 0 {
					sy = 0
				} else if sy >= h {
					sy = h - 1
				}
				for x := 0; x < w; x++ {
					sx := x + shiftX
					if sx < 0 {
						sx = 0
					} else if sx >= w {
						sx = w - 1
					}
					v := tmp[sy*w+sx]
					if flip {
						pl[y*w+(w-1-x)] = v
					} else {
						pl[y*w+x] = v
					}
				}
			}
		}
	}
}
