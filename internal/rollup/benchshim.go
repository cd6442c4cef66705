package rollup

// The three names below are kept only for bench/, which compiles against
// them and may not be edited; they are removed with ROADMAP item 1. Nothing
// outside bench/ calls them: the window is one Rollup.

// Sharded is the window type bench/ names.
type Sharded = Rollup

// NewSharded builds the window; n is ignored.
func NewSharded(n int, cfg Config) *Rollup { return New(cfg) }

// Merged returns an independent deep copy of the window (a fresh rollup of
// the same geometry with r merged in).
func (r *Rollup) Merged() (*Rollup, error) {
	out := New(r.cfg)
	if err := out.Merge(r); err != nil {
		return nil, err
	}
	return out, nil
}
