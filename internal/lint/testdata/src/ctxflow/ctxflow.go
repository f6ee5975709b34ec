// Package ctxflow exercises abw/ctxflow: dropped contexts at calls
// with a Context variant, fresh Background/TODO mints in library code
// (context-free shims included), ctx struct fields, and suppression.
package ctxflow

import "context"

// holder stores a context, outliving the call that scoped it.
type holder struct {
	ctx context.Context // want "stored in a struct field"
	n   int
}

// work is the context-accepting workhorse.
func work(ctx context.Context, n int) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	_ = n
	return nil
}

// stepContext is the cancellable variant of step.
func stepContext(ctx context.Context, n int) error {
	return work(ctx, n)
}

// step is a context-free twin of stepContext: a single-return shim
// minting Background. Library packages keep one ctx-first entry, so
// the shim is a finding.
func step(n int) error {
	return stepContext(context.Background(), n) // want "context.Background() in library code"
}

// drops receives a ctx but calls the context-free step, severing the
// chain stepContext exists to keep intact.
func drops(ctx context.Context, n int) error {
	return step(n) // want "call drops ctx"
}

// forwards passes its ctx on; no finding.
func forwards(ctx context.Context, n int) error {
	return stepContext(ctx, n)
}

// mintsFresh has a ctx in scope and mints a new one anyway.
func mintsFresh(ctx context.Context, n int) error {
	return work(context.Background(), n) // want "context.Background() in library code"
}

// tooBig mints inside a longer body; a finding like any other mint.
func tooBig(n int) error {
	m := n + 1
	return work(context.Background(), m) // want "context.Background() in library code"
}

// client has a method pair following the same Context convention.
type client struct{ n int }

func (c *client) fetchContext(ctx context.Context, n int) error {
	return work(ctx, n)
}

// fetch is a method-shaped context-free twin; a finding like step.
func (c *client) fetch(n int) error {
	return c.fetchContext(context.Background(), n) // want "context.Background() in library code"
}

// dropsMethod has a ctx and calls the context-free method variant.
func dropsMethod(ctx context.Context, c *client) error {
	return c.fetch(1) // want "call drops ctx"
}

// sentinel documents a deliberately detached context.
func sentinel(n int) error {
	//lint:ignore abw/ctxflow fixture: detached on purpose; suppression under test
	c := context.TODO()
	return work(c, n)
}
