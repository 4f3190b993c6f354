// Package core is a stub mirroring the real engine: fields may only
// be written on the Builder.Build/ApplyDelta call graph.
package core

type Engine struct {
	Gen     int
	users   []string
	ctxOver map[string]int
	ctx     table
	pprMemo map[string][]float64
}

// table is struct-valued: writes reach the engine through a selector.
type table struct {
	base, over map[string]int
}

type Builder struct{}

func (b *Builder) Build() *Engine {
	e := &Engine{ctxOver: map[string]int{}}
	e.users = []string{"u1"} // construction: allowed
	finish(e)
	return e
}

func (b *Builder) ApplyDelta(prev *Engine) *Engine {
	ne := &Engine{users: prev.users}
	ne.ctxOver = map[string]int{} // construction: allowed
	ne.ctxOver["u1"] = 1          // construction: allowed
	ne.Gen = prev.Gen + 1         // construction: allowed
	ne.ctx.over = map[string]int{}
	ne.ctx.over["u1"] = 1 // construction: allowed
	return ne
}

// finish is reachable from Build.
func finish(e *Engine) {
	e.pprMemo = map[string][]float64{} // allowed via reachability
}

// Memoize runs on the read path, after the snapshot is published.
func (e *Engine) Memoize(u string) {
	e.pprMemo[u] = nil // want `outside the construction whitelist`
}

// Repair writes a row of a published snapshot's table.
func (e *Engine) Repair(u string) {
	e.ctx.over[u] = 1  // want `outside the construction whitelist`
	(e.ctx).base = nil // want `outside the construction whitelist`
}

// set writes a table of its own, not a snapshot's.
func (t *table) set(k string) {
	t.over[k] = 1
}
