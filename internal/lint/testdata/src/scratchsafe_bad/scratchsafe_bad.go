// Package scratchsafe_bad is the negative fixture for the scratchsafe
// analyzer: a scratch-carrying kernel that leaks its buffers through
// every escape channel the analyzer knows. CI asserts the suite fails on
// this package.
package scratchsafe_bad

// retained is the global a buggy kernel parks its scratch in.
var retained []int

// sink is a non-receiver struct scratch must not land in.
type sink struct {
	kept []int
}

// kernel reuses buf across Step calls; nothing aliasing it may survive a
// call.
type kernel struct {
	buf []int //lint:scratch
}

// Step fills the scratch and then leaks it four different ways.
func (k *kernel) Step(n int, s *sink) []int {
	k.buf = k.buf[:0]
	for i := 0; i < n; i++ {
		k.buf = append(k.buf, i)
	}
	retained = k.buf // stores scratch into a global
	s.kept = k.buf   // stores scratch into a non-receiver struct
	return k.buf     // returns scratch
}

// Window re-slices scratch into a named result.
func (k *kernel) Window(lo, hi int) (out []int) {
	out = k.buf[lo:hi]
	return out
}

// Deferred returns a closure that reads scratch after the call ends.
func (k *kernel) Deferred() func() int {
	return func() int { return len(k.buf) }
}

// pooled embeds a scratch-carrying struct, so its methods reach the
// tagged buffer as a promoted field and are checked like the kernel's.
type pooled struct {
	id int
	kernel
}

// Leak returns the promoted scratch field.
func (p *pooled) Leak() []int {
	return p.buf
}
