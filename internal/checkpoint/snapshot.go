package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SnapshotFormat is the on-disk format version, the only one ReadSnapshot
// accepts; bump it on incompatible layout changes. Numbers 1-3 belong to
// retired layouts and must not be reused.
const SnapshotFormat = 4

// Blob is one named piece of component state: a shaped float32 tensor, a
// float64/int64 vector, or a string. Exactly the payload kinds the training
// stack needs — weights and optimizer slots (F32 + Shape), bit-exact scalar
// metrics and RNG cursors (F64/I64), and identity/config strings (Str).
type Blob struct {
	Shape []int
	F32   []float32
	F64   []float64
	I64   []int64
	Str   string
}

// Component is the serialized state of one training subsystem (the model,
// an optimizer, one replica's private state, ...), keyed by blob name.
type Component map[string]Blob

// PutF32 stores a copy of data under key with the given shape. Copying is
// deliberate: captures happen at a step boundary and the training loop keeps
// mutating the source buffers immediately afterwards, while the async writer
// is still encoding the snapshot.
func (c Component) PutF32(key string, shape []int, data []float32) {
	c[key] = Blob{
		Shape: append([]int(nil), shape...),
		F32:   append([]float32(nil), data...),
	}
}

// PutI64 stores a single int64 under key.
func (c Component) PutI64(key string, v int64) { c[key] = Blob{I64: []int64{v}} }

// PutF64 stores a single float64 under key (bit-exact, unlike a float32
// round trip).
func (c Component) PutF64(key string, v float64) { c[key] = Blob{F64: []float64{v}} }

// PutF64s stores a copy of a float64 vector under key.
func (c Component) PutF64s(key string, vals []float64) {
	c[key] = Blob{F64: append([]float64(nil), vals...)}
}

// PutStr stores a string under key.
func (c Component) PutStr(key, v string) { c[key] = Blob{Str: v} }

// F32 returns the float32 payload under key, validating presence and, when
// wantShape is non-nil, the exact shape.
func (c Component) F32(key string, wantShape []int) ([]float32, error) {
	b, ok := c[key]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if b.F32 == nil {
		return nil, fmt.Errorf("checkpoint: state %q holds no float32 payload", key)
	}
	if wantShape != nil {
		if len(b.Shape) != len(wantShape) {
			return nil, fmt.Errorf("checkpoint: state %q has shape %v, want %v", key, b.Shape, wantShape)
		}
		n := 1
		for i, d := range wantShape {
			if b.Shape[i] != d {
				return nil, fmt.Errorf("checkpoint: state %q has shape %v, want %v", key, b.Shape, wantShape)
			}
			n *= d
		}
		if len(b.F32) != n {
			return nil, fmt.Errorf("checkpoint: state %q has %d elements, shape %v wants %d", key, len(b.F32), wantShape, n)
		}
	}
	return b.F32, nil
}

// I64 returns the int64 scalar under key.
func (c Component) I64(key string) (int64, error) {
	b, ok := c[key]
	if !ok {
		return 0, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if len(b.I64) != 1 {
		return 0, fmt.Errorf("checkpoint: state %q is not an int64 scalar", key)
	}
	return b.I64[0], nil
}

// F64 returns the float64 scalar under key.
func (c Component) F64(key string) (float64, error) {
	b, ok := c[key]
	if !ok {
		return 0, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if len(b.F64) != 1 {
		return 0, fmt.Errorf("checkpoint: state %q is not a float64 scalar", key)
	}
	return b.F64[0], nil
}

// F64s returns the float64 vector under key.
func (c Component) F64s(key string) ([]float64, error) {
	b, ok := c[key]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing state %q", key)
	}
	if b.F64 == nil {
		return nil, fmt.Errorf("checkpoint: state %q holds no float64 payload", key)
	}
	return b.F64, nil
}

// Str returns the string under key.
func (c Component) Str(key string) (string, error) {
	b, ok := c[key]
	if !ok {
		return "", fmt.Errorf("checkpoint: missing state %q", key)
	}
	return b.Str, nil
}

// Keys returns the component's blob names, sorted.
func (c Component) Keys() []string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot is a complete, versioned capture of training state at a step
// boundary: one Component per stateful subsystem. A run restored from a
// snapshot continues bit-for-bit identically to the uninterrupted run.
type Snapshot struct {
	Format     int
	Components map[string]Component
}

// NewSnapshot returns an empty snapshot at the current format version.
func NewSnapshot() *Snapshot {
	return &Snapshot{Format: SnapshotFormat, Components: map[string]Component{}}
}

// Add registers a component under key, rejecting duplicates (two subsystems
// claiming one key would silently shadow each other's state).
func (s *Snapshot) Add(key string, c Component) error {
	if _, dup := s.Components[key]; dup {
		return fmt.Errorf("checkpoint: duplicate snapshot component %q", key)
	}
	s.Components[key] = c
	return nil
}

// Component returns the named component, with an error naming the available
// components when it is absent — the "missing subsystem state" failure mode.
func (s *Snapshot) Component(key string) (Component, error) {
	c, ok := s.Components[key]
	if !ok {
		return nil, fmt.Errorf("checkpoint: snapshot has no %q component (has %v)", key, s.Keys())
	}
	return c, nil
}

// Keys returns the snapshot's component names, sorted.
func (s *Snapshot) Keys() []string {
	keys := make([]string, 0, len(s.Components))
	for k := range s.Components {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StateCodec is the seam every stateful training subsystem implements to
// participate in snapshots: the model, each optimizer, the weight EMA, and
// each replica's private state (BN statistics, RNG cursors). CaptureState
// must deep-copy anything still mutated by training; RestoreState must
// validate presence and shape of everything it reads and reject unknown
// state rather than silently dropping it.
type StateCodec interface {
	// StateKey names this subsystem's component inside a snapshot.
	StateKey() string
	// CaptureState serializes the subsystem's current state.
	CaptureState() (Component, error)
	// RestoreState overwrites the subsystem's state from a captured
	// component.
	RestoreState(Component) error
}

// Capture adds each codec's component to the snapshot.
func (s *Snapshot) Capture(codecs ...StateCodec) error {
	for _, codec := range codecs {
		c, err := codec.CaptureState()
		if err != nil {
			return fmt.Errorf("checkpoint: capture %q: %w", codec.StateKey(), err)
		}
		if err := s.Add(codec.StateKey(), c); err != nil {
			return err
		}
	}
	return nil
}

// Restore feeds each codec its component from the snapshot, erroring if any
// component is missing or rejected.
func (s *Snapshot) Restore(codecs ...StateCodec) error {
	for _, codec := range codecs {
		c, err := s.Component(codec.StateKey())
		if err != nil {
			return err
		}
		if err := codec.RestoreState(c); err != nil {
			return fmt.Errorf("checkpoint: restore %q: %w", codec.StateKey(), err)
		}
	}
	return nil
}

// --- Snapshot file IO --------------------------------------------------------

// The wire form of a snapshot: components and their blobs as name-sorted
// slices. gob encodes maps in random order, so encoding the in-memory maps
// directly would make two writes of one snapshot differ; sorted slices make
// equal snapshots byte-identical files, comparable with cmp — across
// processes too, as long as wireSnapshot stays the only type the program
// gob-encodes (gob numbers types per process in order of first encoding).
type wireSnapshot struct {
	Format int
	// Named apart from Snapshot.Components so that gob skips the map field of
	// a retired-format file and the reader reaches the format check instead
	// of failing on a type mismatch.
	Sorted []wireComponent
}

type wireComponent struct {
	Name  string
	Blobs []wireBlob
}

type wireBlob struct {
	Name string
	Blob Blob
}

// WriteSnapshot gob-encodes the snapshot to w in its deterministic wire form.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	ws := wireSnapshot{Format: s.Format, Sorted: make([]wireComponent, 0, len(s.Components))}
	for _, name := range s.Keys() {
		c := s.Components[name]
		wc := wireComponent{Name: name, Blobs: make([]wireBlob, 0, len(c))}
		for _, key := range c.Keys() {
			wc.Blobs = append(wc.Blobs, wireBlob{Name: key, Blob: c[key]})
		}
		ws.Sorted = append(ws.Sorted, wc)
	}
	if err := gob.NewEncoder(w).Encode(ws); err != nil {
		return fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes and validates a snapshot from r. Truncated or corrupt
// input fails with a descriptive error rather than returning partial state.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var ws wireSnapshot
	if err := gob.NewDecoder(r).Decode(&ws); err != nil {
		return nil, fmt.Errorf("checkpoint: decode snapshot (truncated or corrupt?): %w", err)
	}
	if ws.Format != SnapshotFormat {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot format %d (want %d)", ws.Format, SnapshotFormat)
	}
	if len(ws.Sorted) == 0 {
		return nil, fmt.Errorf("checkpoint: snapshot has no components")
	}
	s := NewSnapshot()
	for _, wc := range ws.Sorted {
		c := make(Component, len(wc.Blobs))
		for _, wb := range wc.Blobs {
			if _, dup := c[wb.Name]; dup {
				return nil, fmt.Errorf("checkpoint: component %q repeats state %q (corrupt?)", wc.Name, wb.Name)
			}
			c[wb.Name] = wb.Blob
		}
		if err := s.Add(wc.Name, c); err != nil {
			return nil, fmt.Errorf("%w (corrupt?)", err)
		}
	}
	return s, nil
}

// ReadSnapshotFile reads and validates a snapshot from path.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// snapshotName formats the file name periodic snapshots are written under.
func snapshotName(step int64) string { return fmt.Sprintf("step-%09d.ckpt", step) }

// snapshotStep parses a snapshot file name, reporting ok=false for files
// that are not periodic snapshots. The match is exact — in particular the
// temp files a crash can leave next to real snapshots
// ("step-N.ckpt.tmp-123") must not count, or retention pruning would spend
// keep-last slots on unreadable garbage.
func snapshotStep(name string) (step int64, ok bool) {
	digits, found := strings.CutPrefix(name, "step-")
	digits, found2 := strings.CutSuffix(digits, ".ckpt")
	if !found || !found2 || digits == "" {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	s, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return s, true
}

// ListSnapshots returns the periodic snapshot files in dir, sorted by step
// ascending. A missing directory is an empty listing, not an error.
func ListSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	type cand struct {
		step int64
		path string
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if step, ok := snapshotStep(e.Name()); ok {
			cands = append(cands, cand{step, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].step < cands[j].step })
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths, nil
}

// ReadLatestSnapshot loads the newest readable snapshot from dir, falling
// back to older ones when the newest is truncated or corrupt (the file a
// crash interrupted mid-write, on filesystems without rename atomicity).
// The returned path names the snapshot actually loaded.
func ReadLatestSnapshot(dir string) (*Snapshot, string, error) {
	paths, err := ListSnapshots(dir)
	if err != nil {
		return nil, "", err
	}
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("checkpoint: no snapshots (step-*.ckpt) in %s", dir)
	}
	var errs []error
	for i := len(paths) - 1; i >= 0; i-- {
		s, err := ReadSnapshotFile(paths[i])
		if err == nil {
			return s, paths[i], nil
		}
		errs = append(errs, err)
	}
	return nil, "", fmt.Errorf("checkpoint: no readable snapshot in %s: %w", dir, errors.Join(errs...))
}

// ReadSnapshotPath reads the snapshot a path names: the file itself, or for
// a directory the newest readable step-*.ckpt in it (ReadLatestSnapshot). The
// returned src names the file actually loaded.
func ReadSnapshotPath(path string) (snap *Snapshot, src string, err error) {
	if info, statErr := os.Stat(path); statErr == nil && info.IsDir() {
		return ReadLatestSnapshot(path)
	}
	snap, err = ReadSnapshotFile(path)
	return snap, path, err
}

// WriteSnapshotFile writes the snapshot to path atomically and durably: the
// payload goes to a temp file in the same directory, which is fsynced before
// the rename and whose directory is fsynced after it, so a crash at any
// point leaves either the complete old file or the complete new one — never
// a truncated snapshot under the final name.
func WriteSnapshotFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := WriteSnapshot(f, s); err != nil {
		return fail(err)
	}
	// fsync the temp file before renaming it into place: rename orders
	// metadata, not data, so without this a crash shortly after "atomic"
	// save could still expose a truncated or empty checkpoint under the
	// final name.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// fsync the directory so the rename itself survives a crash.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
