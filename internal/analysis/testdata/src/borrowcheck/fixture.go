// Package borrowfix exercises the borrowcheck analyzer: return values of
// //gamelens:borrowed functions must not be stored to outliving
// locations.
package borrowfix

// Pool hands out views of its internal scratch.
type Pool struct {
	scratch []byte
	kept    []byte
	all     [][]byte
}

// View returns a borrowed view of pool-owned scratch, overwritten by the
// next call.
//
//gamelens:borrowed view of pool scratch
func (p *Pool) View(n int) []byte {
	return p.scratch[:n]
}

// Keep retains the borrowed view in a field.
func (p *Pool) Keep(n int) {
	v := p.View(n)
	p.kept = v // want "borrowed view stored to field kept"
}

// KeepDirect stores the call result without an intermediate name.
func (p *Pool) KeepDirect(n int) {
	p.kept = p.View(n) // want "borrowed view stored to field kept"
}

// Collect smuggles the view into an outliving slice through append.
func (p *Pool) Collect(n int) {
	v := p.View(n)
	p.all = append(p.all, v) // want "via append"
}

// Clone copies the bytes before retaining: the sanctioned idiom.
func (p *Pool) Clone(n int) {
	p.kept = append(p.kept[:0], p.View(n)...)
}

// Handoff documents a deliberate ownership transfer.
func (p *Pool) Handoff(n int) {
	v := p.View(n)
	//gamelens:retain-ok pool is single-owner here; documented transfer
	p.kept = v
}

// Relend passes the view down the stack without storing it: clean.
func (p *Pool) Relend(n int) int {
	return use(p.View(n))
}

func use(b []byte) int { return len(b) }
