package serve

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/efficientnet"
)

// LoaderConfig tells a Loader where weights come from: the "model" component
// of a snapshot, whatever else the file carries.
type LoaderConfig struct {
	// WeightsPath boots from one snapshot file, not watched. Exactly one of
	// WeightsPath and SnapshotDir must be set.
	WeightsPath string
	// SnapshotDir boots from the newest readable snapshot in the directory
	// and then watches it: each time a newer snapshot appears, its weights
	// are loaded into a fresh model and hot-swapped in.
	SnapshotDir string
	// Poll is the snapshot-directory polling interval (only meaningful with
	// SnapshotDir). Defaults to 2s; < 0 disables watching (boot only).
	Poll time.Duration
	// OnSwap, when non-nil, is called after each successful hot reload with
	// the new version tag — the server's log hook. Called synchronously
	// from the watch goroutine, so it must not block (a blocked OnSwap
	// stalls further reloads and Close).
	OnSwap func(tag string)
	// OnError, when non-nil, receives watch-loop errors (an unreadable new
	// snapshot, or one whose model family, class count or resolution differs
	// from the booted model's). The loader keeps serving the old model and
	// keeps watching.
	OnError func(err error)
}

// loadedModel pairs weights with their version tag and source step so the
// watcher can tell "newer" without re-parsing file names.
type loadedModel struct {
	m    *efficientnet.Model
	tag  string
	path string
}

// Loader is a ModelProvider that boots from a snapshot and (optionally)
// hot-reloads newer ones. The swap is one atomic pointer
// store: batches dispatched before the swap finish on the model they
// captured, batches after see the new weights — no lock on the serving path.
type Loader struct {
	cfg     LoaderConfig
	cur     atomic.Pointer[loadedModel]
	reloads atomic.Int64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewLoader boots the initial model (deriving the architecture from the
// snapshot itself via checkpoint.ModelInfo) and, for snapshot directories,
// starts the watch goroutine.
func NewLoader(cfg LoaderConfig) (*Loader, error) {
	if (cfg.WeightsPath == "") == (cfg.SnapshotDir == "") {
		return nil, fmt.Errorf("serve: set exactly one of WeightsPath and SnapshotDir")
	}
	if cfg.Poll == 0 {
		cfg.Poll = 2 * time.Second
	}
	l := &Loader{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	path := cfg.SnapshotDir
	if cfg.WeightsPath != "" {
		path = cfg.WeightsPath
	}
	lm, err := loadModel(path)
	if err != nil {
		return nil, err
	}
	l.cur.Store(lm)
	if cfg.SnapshotDir != "" && cfg.Poll > 0 {
		go l.watch()
	} else {
		close(l.done)
	}
	return l, nil
}

// Current implements ModelProvider.
func (l *Loader) Current() (*efficientnet.Model, string) {
	lm := l.cur.Load()
	return lm.m, lm.tag
}

// Reloads returns the number of successful hot swaps since boot.
func (l *Loader) Reloads() int64 { return l.reloads.Load() }

// Close stops the watch goroutine. The current model stays valid.
func (l *Loader) Close() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// watch polls the snapshot directory and swaps in any snapshot newer than
// the one currently serving whose model has the booted geometry. Weights
// always load into a FRESH model — the serving model is read concurrently by
// workers and must never be mutated.
func (l *Loader) watch() {
	defer close(l.done)
	ticker := time.NewTicker(l.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
		}
		paths, err := checkpoint.ListSnapshots(l.cfg.SnapshotDir)
		if err != nil {
			l.reportError(err)
			continue
		}
		if len(paths) == 0 {
			continue
		}
		newest := paths[len(paths)-1]
		if newest == l.cur.Load().path {
			continue
		}
		lm, err := loadModel(newest)
		if err != nil {
			l.reportError(fmt.Errorf("serve: hot reload %s: %w", newest, err))
			continue
		}
		// Batchers size requests and replies from the booted model, so a
		// snapshot of another geometry would fail every request it served.
		if got, want := lm.m.Config, l.cur.Load().m.Config; got.Name != want.Name ||
			got.NumClasses != want.NumClasses || got.Resolution != want.Resolution {
			l.reportError(fmt.Errorf("serve: hot reload %s: snapshot is %s with %d classes @ res %d, serving %s with %d classes @ res %d; not swapped",
				newest, got.Name, got.NumClasses, got.Resolution, want.Name, want.NumClasses, want.Resolution))
			continue
		}
		l.cur.Store(lm)
		l.reloads.Add(1)
		if l.cfg.OnSwap != nil {
			l.cfg.OnSwap(lm.tag)
		}
	}
}

func (l *Loader) reportError(err error) {
	if l.cfg.OnError != nil {
		l.cfg.OnError(err)
	}
}

// newModelFor builds the architecture a checkpoint describes. The weight
// init is immediately overwritten, so the RNG seed is irrelevant.
func newModelFor(family string, classes, resolution int) (*efficientnet.Model, error) {
	cfg, ok := efficientnet.ConfigByName(family, classes)
	if !ok {
		return nil, fmt.Errorf("serve: checkpoint names unknown model family %q", family)
	}
	cfg.Resolution = resolution
	return efficientnet.New(rand.New(rand.NewSource(1)), cfg), nil
}

// loadModel restores the model component of the snapshot path names (a file,
// or a directory's newest readable snapshot) into a fresh model.
func loadModel(path string) (*loadedModel, error) {
	s, src, err := checkpoint.ReadSnapshotPath(path)
	if err != nil {
		return nil, err
	}
	family, classes, res, err := checkpoint.ModelInfo(s)
	if err != nil {
		return nil, err
	}
	m, err := newModelFor(family, classes, res)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(checkpoint.ModelState(m)); err != nil {
		return nil, err
	}
	return &loadedModel{m: m, tag: filepath.Base(src), path: src}, nil
}
