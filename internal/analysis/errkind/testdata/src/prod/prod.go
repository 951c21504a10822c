// Package prod produces errors whose cancellability is exported as
// Cancellable facts consumed by the wire fixture.
package prod

import (
	"context"

	"core"
)

// Interrupted returns a KindCancelled error: cancellable.
func Interrupted() error {
	return core.Wrapf(core.KindCancelled, nil, "interrupted")
}

// Shed returns a KindOverload error: cancellable (retry-critical).
func Shed() error {
	return core.Errorf(core.KindOverload, "connection pool full")
}

// ReadFile fails with a plain IO kind: not cancellable.
func ReadFile() error {
	return core.Errorf(core.KindIO, "short read")
}

// Relay is cancellable transitively through Interrupted.
func Relay() error {
	return Interrupted()
}

// Checked swallows the cancellable error: not cancellable.
func Checked() bool {
	return Interrupted() != nil
}

// ReadCtx takes a context but never returns its error: not cancellable,
// and errkind knows because it analysed this package.
func ReadCtx(ctx context.Context) error {
	_ = ctx
	return core.Errorf(core.KindIO, "short read")
}
