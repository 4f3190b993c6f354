package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Sketcher computes SCENT descriptors: an ensemble of m random linear
// measurements of the vectorized tensor. Measurement vectors are
// Rademacher (+1/-1) sequences generated pseudo-randomly from (seed,
// measurement index, cell index), so they never need to be materialized —
// the memory footprint is O(m), independent of tensor size, and a
// descriptor update for one changed cell costs O(m).
type Sketcher struct {
	shape []int
	m     int
	seed  int64
}

// NewSketcher creates a sketcher for tensors of the given shape with an
// ensemble of m measurements.
func NewSketcher(m int, seed int64, shape ...int) (*Sketcher, error) {
	if m <= 0 {
		return nil, fmt.Errorf("tensor: ensemble size must be positive, got %d", m)
	}
	if len(shape) == 0 {
		return nil, fmt.Errorf("%w: empty shape", ErrShape)
	}
	return &Sketcher{shape: append([]int(nil), shape...), m: m, seed: seed}, nil
}

// M returns the ensemble size.
func (sk *Sketcher) M() int { return sk.m }

// sign returns the +1/-1 Rademacher entry of measurement j at cell idx.
// splitmix64-style hashing gives independent, reproducible signs.
func (sk *Sketcher) sign(j, idx int) float64 {
	x := uint64(sk.seed) ^ (uint64(j)+1)*0x9e3779b97f4a7c15 ^ (uint64(idx)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x&1 == 0 {
		return 1
	}
	return -1
}

// Descriptor is the compact SCENT summary of one tensor epoch.
type Descriptor []float64

// Sketch computes the descriptor of a tensor. Cost: O(nnz × m).
func (sk *Sketcher) Sketch(t *Sparse) (Descriptor, error) {
	if !sameShape(sk.shape, t.shape) {
		return nil, fmt.Errorf("%w: sketcher %v vs tensor %v", ErrShape, sk.shape, t.shape)
	}
	d := make(Descriptor, sk.m)
	t.Each(func(coords []int, v float64) {
		idx := linearIndex(sk.shape, coords)
		for j := 0; j < sk.m; j++ {
			d[j] += sk.sign(j, idx) * v
		}
	})
	return d, nil
}

// Update applies a single-cell delta to an existing descriptor in O(m),
// the streaming fast path that makes SCENT incremental.
func (sk *Sketcher) Update(d Descriptor, delta float64, coords ...int) error {
	if len(d) != sk.m {
		return fmt.Errorf("tensor: descriptor size %d, want %d", len(d), sk.m)
	}
	if len(coords) != len(sk.shape) {
		return fmt.Errorf("%w: got %d coords", ErrShape, len(coords))
	}
	for i, c := range coords {
		if c < 0 || c >= sk.shape[i] {
			return fmt.Errorf("%w: coord out of range", ErrShape)
		}
	}
	idx := linearIndex(sk.shape, coords)
	for j := 0; j < sk.m; j++ {
		d[j] += sk.sign(j, idx) * delta
	}
	return nil
}

// Distance estimates the Frobenius distance between the tensors behind
// two descriptors: ||sketch(a) - sketch(b)|| / sqrt(m) is an unbiased
// estimator of ||a - b||_F for Rademacher ensembles.
func Distance(a, b Descriptor) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("tensor: descriptor sizes differ: %d vs %d", len(a), len(b))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// Detector flags structural change in a descriptor stream. A change is
// reported when the estimated distance between consecutive epochs exceeds
// mean + Threshold×stddev of the trailing window of distances (a
// self-calibrating rule, since absolute activity volumes vary by venue).
type Detector struct {
	// Threshold in standard deviations; defaults to 3 when zero.
	Threshold float64
	// Window is the trailing window length; defaults to 16 when zero.
	Window int

	history []float64
	prev    Descriptor
}

// Observe feeds the next epoch's descriptor and reports whether it
// constitutes a structural change relative to the recent past. The first
// observation never signals.
func (d *Detector) Observe(desc Descriptor) (bool, float64) {
	thr := d.Threshold
	if thr == 0 {
		thr = 3
	}
	win := d.Window
	if win == 0 {
		win = 16
	}
	if d.prev == nil {
		d.prev = append(Descriptor(nil), desc...)
		return false, 0
	}
	dist, err := Distance(d.prev, desc)
	if err != nil {
		return false, 0
	}
	d.prev = append(d.prev[:0], desc...)

	changed := false
	if len(d.history) >= 3 {
		mean, sd := meanStd(d.history)
		if dist > mean+thr*sd {
			changed = true
		}
	}
	// Change epochs are excluded from the baseline history so that a
	// level shift does not immediately inflate the threshold.
	if !changed {
		d.history = append(d.history, dist)
		if len(d.history) > win {
			d.history = d.history[len(d.history)-win:]
		}
	}
	return changed, dist
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	v /= float64(len(xs))
	sd = math.Sqrt(v)
	if sd < 1e-12 {
		sd = 1e-12
	}
	return mean, sd
}

// Stream drives SCENT over a sequence of tensor epochs and records change
// points. It also exposes the exact full-recompute baseline for E6.

// StreamResult reports detection output for one epoch.
type StreamResult struct {
	Epoch    int     `json:"epoch"`
	Change   bool    `json:"change"`
	Distance float64 `json:"distance"`
}

// MonitorSketched runs the SCENT detector over epochs using descriptors.
func MonitorSketched(sk *Sketcher, epochs []*Sparse, det *Detector) ([]StreamResult, error) {
	results := make([]StreamResult, 0, len(epochs))
	for i, t := range epochs {
		desc, err := sk.Sketch(t)
		if err != nil {
			return nil, err
		}
		ch, dist := det.Observe(desc)
		results = append(results, StreamResult{Epoch: i, Change: ch, Distance: dist})
	}
	return results, nil
}

// MonitorExact runs the same detection rule on exact Frobenius distances
// between consecutive epochs — the baseline SCENT is compared against.
func MonitorExact(epochs []*Sparse, det *Detector) ([]StreamResult, error) {
	results := make([]StreamResult, 0, len(epochs))
	var prev *Sparse
	for i, t := range epochs {
		if prev == nil {
			prev = t
			results = append(results, StreamResult{Epoch: i})
			// Seed the detector so window bookkeeping matches.
			det.prev = Descriptor{0}
			continue
		}
		dist, err := t.Diff(prev)
		if err != nil {
			return nil, err
		}
		prev = t
		ch := det.observeExact(dist)
		results = append(results, StreamResult{Epoch: i, Change: ch, Distance: dist})
	}
	return results, nil
}

// observeExact applies the detector's thresholding rule to an
// externally computed distance.
func (d *Detector) observeExact(dist float64) bool {
	thr := d.Threshold
	if thr == 0 {
		thr = 3
	}
	win := d.Window
	if win == 0 {
		win = 16
	}
	changed := false
	if len(d.history) >= 3 {
		mean, sd := meanStd(d.history)
		if dist > mean+thr*sd {
			changed = true
		}
	}
	if !changed {
		d.history = append(d.history, dist)
		if len(d.history) > win {
			d.history = d.history[len(d.history)-win:]
		}
	}
	return changed
}

// Delta is a single-cell update in a tensor stream — the native unit of
// arrival in the streaming setting SCENT targets.
type Delta struct {
	Coords []int
	Value  float64
}

// SyntheticStream generates a reproducible tensor stream for tests and
// benches: `epochs` tensors of the given shape with `baseNNZ` random
// entries drifting slowly, plus structural shifts (a dense block appears)
// at the given change points.
func SyntheticStream(seed int64, shape []int, epochs, baseNNZ int, changeAt map[int]bool) []*Sparse {
	stream, _ := SyntheticStreamWithDeltas(seed, shape, epochs, baseNNZ, changeAt)
	return stream
}

// SyntheticStreamWithDeltas is SyntheticStream exposing, for each epoch,
// the list of cell deltas that produced it from its predecessor — what an
// incremental monitor consumes.
func SyntheticStreamWithDeltas(seed int64, shape []int, epochs, baseNNZ int, changeAt map[int]bool) ([]*Sparse, [][]Delta) {
	rng := rand.New(rand.NewSource(seed))
	stream := make([]*Sparse, 0, epochs)
	deltas := make([][]Delta, 0, epochs)
	cur := MustSparse(shape...)
	coordsFor := func() []int {
		c := make([]int, len(shape))
		for i, d := range shape {
			c[i] = rng.Intn(d)
		}
		return c
	}
	var initial []Delta
	for i := 0; i < baseNNZ; i++ {
		c := coordsFor()
		v := rng.Float64()
		before, _ := cur.At(c...)
		_ = cur.Set(v, c...)
		initial = append(initial, Delta{Coords: c, Value: v - before})
	}
	for e := 0; e < epochs; e++ {
		next := cur.Clone()
		var ds []Delta
		if e == 0 {
			ds = append(ds, initial...)
		}
		// Slow drift: a handful of entries change slightly.
		for i := 0; i < baseNNZ/20+1; i++ {
			c := coordsFor()
			d := 0.1 * (rng.Float64() - 0.5)
			_ = next.Add(d, c...)
			ds = append(ds, Delta{Coords: c, Value: d})
		}
		if changeAt[e] {
			// Structural change: a burst of strong entries concentrated in
			// a random block (e.g. a hot session's Q&A explodes).
			base := coordsFor()
			for i := 0; i < baseNNZ/2+10; i++ {
				c := append([]int(nil), base...)
				for j := range c {
					span := shape[j]/8 + 1
					c[j] = (base[j] + rng.Intn(span)) % shape[j]
				}
				d := 1.5 + rng.Float64()
				_ = next.Add(d, c...)
				ds = append(ds, Delta{Coords: c, Value: d})
			}
		}
		stream = append(stream, next)
		deltas = append(deltas, ds)
		cur = next
	}
	return stream, deltas
}

// MonitorIncremental runs the SCENT detector maintaining the descriptor
// purely from per-epoch deltas: each cell update costs O(m), independent
// of tensor size or density — the headline complexity of SCENT.
func MonitorIncremental(sk *Sketcher, deltas [][]Delta, det *Detector) ([]StreamResult, error) {
	desc := make(Descriptor, sk.M())
	results := make([]StreamResult, 0, len(deltas))
	for i, ds := range deltas {
		for _, d := range ds {
			if err := sk.Update(desc, d.Value, d.Coords...); err != nil {
				return nil, err
			}
		}
		ch, dist := det.Observe(desc)
		results = append(results, StreamResult{Epoch: i, Change: ch, Distance: dist})
	}
	return results, nil
}
