// Package abw shows the abw/ctxflow facade exemption: the root facade's
// context-free methods mint the root context for library callers, the
// same mint that is a finding in any internal package. Dropping a ctx
// it received is still a finding.
package abw

import "context"

// System is a facade over some ctx-first internal entry.
type System struct{ n int }

// QueryContext is the ctx-first facade method.
func (s *System) QueryContext(ctx context.Context, n int) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	s.n = n
	return nil
}

// Query is the context-free facade method. No finding: the facade
// mints the root context.
func (s *System) Query(n int) error {
	return s.QueryContext(context.Background(), n)
}

// QueryTwice mints once for two calls. No finding either: the
// exemption covers the whole package, whatever the function's shape.
func (s *System) QueryTwice(n int) error {
	ctx := context.TODO()
	if err := s.QueryContext(ctx, n); err != nil {
		return err
	}
	return s.QueryContext(ctx, n+1)
}

// drops receives a ctx and calls the context-free method.
func drops(ctx context.Context, s *System) error {
	return s.Query(1) // want "call drops ctx"
}
