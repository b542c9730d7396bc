package checkpoint

import (
	"fmt"
	"sort"
	"strings"

	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

// ModelInfo reports the model identity recorded in a snapshot's "model"
// component: family name, class count and train/eval resolution. A serving
// loader uses it to construct the matching architecture before restoring.
func ModelInfo(s *Snapshot) (model string, numClasses, resolution int, err error) {
	c, err := s.Component("model")
	if err != nil {
		return "", 0, 0, err
	}
	family, err := c.Str("family")
	if err != nil {
		return "", 0, 0, err
	}
	classes, err := c.I64("classes")
	if err != nil {
		return "", 0, 0, err
	}
	res, err := c.I64("resolution")
	if err != nil {
		return "", 0, 0, err
	}
	return family, int(classes), int(res), nil
}

// --- Model state codec --------------------------------------------------------

// modelState adapts an EfficientNet model to the StateCodec interface:
// parameters keyed by name ("param/<name>") plus BN running statistics in
// layer order ("bn/<i>/mean", "bn/<i>/var") and the model identity, all
// validated on restore.
type modelState struct {
	m *efficientnet.Model
}

// ModelState returns the model's snapshot codec (component "model").
func ModelState(m *efficientnet.Model) StateCodec { return modelState{m} }

// StateKey implements StateCodec.
func (modelState) StateKey() string { return "model" }

// CaptureState implements StateCodec.
func (s modelState) CaptureState() (Component, error) {
	c := Component{}
	c.PutStr("family", s.m.Config.Name)
	c.PutI64("classes", int64(s.m.Config.NumClasses))
	c.PutI64("resolution", int64(s.m.Config.Resolution))
	if _, err := nn.ParamIndex(s.m.Params()); err != nil {
		return nil, err
	}
	for _, p := range s.m.Params() {
		c.PutF32("param/"+p.Name, p.Data().Shape(), p.Data().Data())
	}
	for i, bn := range s.m.BatchNorms() {
		c.PutF32(fmt.Sprintf("bn/%d/mean", i), bn.RunningMean.Shape(), bn.RunningMean.Data())
		c.PutF32(fmt.Sprintf("bn/%d/var", i), bn.RunningVar.Shape(), bn.RunningVar.Data())
	}
	return c, nil
}

// RestoreState implements StateCodec. Every model parameter and BN layer
// must be present with matching shape, and the component must carry nothing
// the model does not have — extra state means the snapshot was taken from a
// different architecture and silently dropping it would corrupt the resume.
// All of that is checked before the first copy, so a rejected component
// leaves the model untouched.
func (s modelState) RestoreState(c Component) error {
	srcs, dsts, err := s.stage(c)
	if err != nil {
		return err
	}
	for i, dst := range dsts {
		copy(dst, srcs[i])
	}
	return nil
}

// CheckModelState reports whether c would restore into m, without writing:
// the validation half of ModelState(m).RestoreState, for callers that must
// reject a snapshot before mutating anything else.
func CheckModelState(m *efficientnet.Model, c Component) error {
	_, _, err := modelState{m}.stage(c)
	return err
}

// stage validates identity, presence, shape and surplus keys, and returns the
// validated payloads paired with the model buffers they restore into.
func (s modelState) stage(c Component) (srcs, dsts [][]float32, err error) {
	family, err := c.Str("family")
	if err != nil {
		return nil, nil, err
	}
	if family != s.m.Config.Name {
		return nil, nil, fmt.Errorf("snapshot saved from model %q, restoring into %q", family, s.m.Config.Name)
	}
	classes, err := c.I64("classes")
	if err != nil {
		return nil, nil, err
	}
	if int(classes) != s.m.Config.NumClasses {
		return nil, nil, fmt.Errorf("snapshot has %d classes, model has %d", classes, s.m.Config.NumClasses)
	}
	res, err := c.I64("resolution")
	if err != nil {
		return nil, nil, err
	}
	if int(res) != s.m.Config.Resolution {
		return nil, nil, fmt.Errorf("snapshot at resolution %d, model at %d", res, s.m.Config.Resolution)
	}
	known := map[string]bool{"family": true, "classes": true, "resolution": true}
	want := func(key string, dst *tensor.Tensor) error {
		data, err := c.F32(key, dst.Shape())
		if err != nil {
			return err
		}
		known[key] = true
		srcs, dsts = append(srcs, data), append(dsts, dst.Data())
		return nil
	}
	for _, p := range s.m.Params() {
		if err := want("param/"+p.Name, p.Data()); err != nil {
			return nil, nil, err
		}
	}
	for i, bn := range s.m.BatchNorms() {
		if err := want(fmt.Sprintf("bn/%d/mean", i), bn.RunningMean); err != nil {
			return nil, nil, err
		}
		if err := want(fmt.Sprintf("bn/%d/var", i), bn.RunningVar); err != nil {
			return nil, nil, err
		}
	}
	var extra []string
	for key := range c {
		if !known[key] {
			extra = append(extra, key)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("snapshot carries state the model does not have: %s", strings.Join(extra, ", "))
	}
	return srcs, dsts, nil
}
