//go:build !amd64

package tensor

// depthwiseLanes has no assembly off amd64: the Go loop runs every plane.
func depthwiseLanes(dst, x *Tensor, w PackedDepthwise, g dwGeom, pool *Scratch) bool { return false }
