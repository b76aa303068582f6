package arm2gc

import "io"

// WithRand sets the label-randomness source for the garbling side
// (default crypto/rand), so tests can make it deterministic or fail it.
func WithRand(r io.Reader) Option { return func(c *sessionConfig) { c.rand = r } }
