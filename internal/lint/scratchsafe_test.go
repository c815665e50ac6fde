package lint

import "testing"

func TestScratchsafe(t *testing.T) {
	pkg := Module + "/internal/fixture"

	t.Run("untagged_fields_are_ignored", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type plain struct{ buf []int }

func (p *plain) Grab() []int { return p.buf } // no //lint:scratch tag: fine
`})
	})

	t.Run("escape_channels_in_scratch_methods", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

var global []int

type sink struct{ kept []int }

type kernel struct {
	buf []int //lint:scratch
	n   int
}

func (k *kernel) Grab() []int {
	return k.buf // want "returns memory aliasing scratch field buf"
}

func (k *kernel) Reslice(n int) []int {
	return k.buf[:n] // want "returns memory aliasing scratch field buf"
}

func (k *kernel) Leak() {
	global = k.buf // want "stores memory aliasing scratch field buf into package-level global"
}

func (k *kernel) Stash(s *sink) {
	s.kept = k.buf // want "stores memory aliasing scratch field buf into a non-receiver struct"
}

func (k *kernel) Rehome() {
	k.buf = append(k.buf, 1) // receiver rehoming: the blessed idiom
	k.n = len(k.buf)
}
`})
	})

	t.Run("taint_flows_through_locals_and_appends", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type kernel struct {
	buf []int //lint:scratch
}

func (k *kernel) Grow(n int) []int {
	out := k.buf[:0]
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	k.buf = out
	return out // want "returns memory aliasing scratch field buf"
}

func (k *kernel) Copied(n int) []int {
	fresh := make([]int, n)
	copy(fresh, k.buf)
	return fresh // a copy is caller-owned: fine
}
`})
	})

	t.Run("named_results_and_closures", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type kernel struct {
	buf []int //lint:scratch
}

func (k *kernel) IntoResult(n int) (out []int) {
	out = k.buf[:n] // want "assigns memory aliasing scratch field buf to result out"
	return out
}

func (k *kernel) Closure() func() int {
	return func() int { return len(k.buf) } // want "returned closure captures scratch field buf"
}

func (k *kernel) SyncClosureIsFine(sorter func(func(i, j int) bool)) {
	sorter(func(i, j int) bool { return k.buf[i] < k.buf[j] })
}
`})
	})

	t.Run("goroutines_and_channels", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type kernel struct {
	buf []int //lint:scratch
}

func (k *kernel) Spawn(ch chan []int) {
	go func() { _ = k.buf[0] }() // want "goroutine captures scratch field buf"
	ch <- k.buf                  // want "sends memory aliasing scratch field buf into a channel"
}
`})
	})

	t.Run("hotpath_functions_are_checked_without_tagged_receiver", func(t *testing.T) {
		// A //lint:hotpath method of an untagged type still may not leak
		// another type's scratch: the hot set and the scratch index are
		// independent inputs.
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type store struct {
	tmp []byte //lint:scratch
}

type engine struct{ s *store }

//lint:hotpath
func (e *engine) Step() []byte {
	return e.s.tmp // want "returns memory aliasing scratch field tmp in //lint:hotpath Step"
}
`})
	})

	t.Run("transitive_hot_callees_agree_with_hotalloc", func(t *testing.T) {
		// The same static call-graph walk hotalloc uses: a helper reached
		// from a //lint:hotpath root is in scratchsafe's checked set too.
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type kernel struct {
	buf []int //lint:scratch
}

type driver struct{ k *kernel }

//lint:hotpath
func (d *driver) Run() []int { return helper(d.k) }

func helper(k *kernel) []int {
	return k.buf // want "returns memory aliasing scratch field buf in helper, statically reachable from //lint:hotpath Run"
}
`})
	})

	t.Run("embedded_and_held_carriers_pass_the_check_on", func(t *testing.T) {
		// A struct that embeds or holds a scratch-carrying struct carries
		// its scratch: its methods are checked too, transitively.
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type kernel struct {
	buf []int //lint:scratch
}

type pooled struct {
	n int
	kernel
}

func (p *pooled) Promoted() []int {
	return p.buf // want "returns memory aliasing scratch field buf in Promoted, a method of scratch-carrying pooled"
}

type holder struct{ k *kernel }

func (h *holder) Held() []int {
	return h.k.buf // want "returns memory aliasing scratch field buf in Held, a method of scratch-carrying holder"
}

type outer struct{ pooled }

func (o *outer) Nested() []int {
	return o.buf[1:] // want "returns memory aliasing scratch field buf in Nested, a method of scratch-carrying outer"
}

func (o *outer) Count() int { return len(o.buf) } // reading scratch is fine
`})
	})

	t.Run("allow_suppresses_with_reason", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "scratchsafe"), fixturePkg{pkg, `package fixture

type kernel struct {
	buf []int //lint:scratch
}

func (k *kernel) Peek() []int {
	//lint:allow scratchsafe caller is the owner's own test hook and copies immediately
	return k.buf
}
`})
	})
}
