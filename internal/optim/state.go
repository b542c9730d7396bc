package optim

import (
	"fmt"
	"strconv"
	"strings"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/nn"
)

// This file implements snapshot state capture/restore for every optimizer:
// the momentum buffers and second-moment accumulators that live in the
// per-parameter slot map. State is keyed by parameter name — the stable
// identity that survives process restarts — and restore validates names and
// shapes so a snapshot from a different run shape fails loudly instead of
// training on garbage.

// captureSlotState serializes a slot map: one "slot/<param>/<i>" blob per
// slot tensor, plus the optimizer name for cross-optimizer restore checks.
func captureSlotState(name string, slots state, params []*nn.Param) (checkpoint.Component, error) {
	if _, err := nn.ParamIndex(params); err != nil {
		return nil, err
	}
	c := checkpoint.Component{}
	c.PutStr("name", name)
	for _, p := range params {
		sl, ok := slots[p]
		if !ok {
			// Never stepped (no gradient yet): nothing to save; restore
			// recreates the same lazily-zero state.
			continue
		}
		for i, t := range sl {
			c.PutF32(fmt.Sprintf("slot/%s/%d", p.Name, i), t.Shape(), t.Data())
		}
	}
	return c, nil
}

// restoreSlotState rebuilds a slot map from a captured component. Anything
// besides the name that is not a well-formed slot for a known parameter is
// an error — extra state means the snapshot belongs to a different setup.
func restoreSlotState(name string, slots *state, nSlots int, params []*nn.Param, c checkpoint.Component) error {
	saved, err := c.Str("name")
	if err != nil {
		return err
	}
	if saved != name {
		return fmt.Errorf("optim: snapshot saved from optimizer %q, restoring into %q", saved, name)
	}
	idx, err := nn.ParamIndex(params)
	if err != nil {
		return err
	}
	fresh := state{}
	for key := range c {
		if key == "name" {
			continue
		}
		rest, ok := strings.CutPrefix(key, "slot/")
		if !ok {
			return fmt.Errorf("optim: unknown state %q in %s snapshot", key, name)
		}
		j := strings.LastIndex(rest, "/")
		if j <= 0 {
			return fmt.Errorf("optim: malformed slot key %q", key)
		}
		pname := rest[:j]
		i, err := strconv.Atoi(rest[j+1:])
		if err != nil || i < 0 || i >= nSlots {
			return fmt.Errorf("optim: slot key %q out of range (optimizer %s keeps %d slots)", key, name, nSlots)
		}
		p, ok := idx[pname]
		if !ok {
			return fmt.Errorf("optim: snapshot has slot state for unknown parameter %q", pname)
		}
		data, err := c.F32(key, p.Data().Shape())
		if err != nil {
			return err
		}
		sl := fresh.get(p, nSlots)
		copy(sl[i].Data(), data)
	}
	*slots = fresh
	return nil
}

// CaptureState implements Optimizer.
func (o *SGD) CaptureState(params []*nn.Param) (checkpoint.Component, error) {
	return captureSlotState(o.Name(), o.slots, params)
}

// RestoreState implements Optimizer.
func (o *SGD) RestoreState(params []*nn.Param, c checkpoint.Component) error {
	return restoreSlotState(o.Name(), &o.slots, 1, params, c)
}

// CaptureState implements Optimizer.
func (o *RMSProp) CaptureState(params []*nn.Param) (checkpoint.Component, error) {
	return captureSlotState(o.Name(), o.slots, params)
}

// RestoreState implements Optimizer.
func (o *RMSProp) RestoreState(params []*nn.Param, c checkpoint.Component) error {
	return restoreSlotState(o.Name(), &o.slots, 2, params, c)
}

// CaptureState implements Optimizer.
func (o *LARS) CaptureState(params []*nn.Param) (checkpoint.Component, error) {
	return captureSlotState(o.Name(), o.slots, params)
}

// RestoreState implements Optimizer.
func (o *LARS) RestoreState(params []*nn.Param, c checkpoint.Component) error {
	return restoreSlotState(o.Name(), &o.slots, 1, params, c)
}
