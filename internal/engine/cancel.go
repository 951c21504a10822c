package engine

import (
	"context"
	"time"

	"repro/internal/core"
)

// Interrupt is the cancellation signal of one statement execution: a
// channel whose close aborts the query (client disconnect, server stop)
// and an optional wall-clock deadline. The zero value never interrupts.
//
// The engine honors interrupts cooperatively: checkpoints between
// pipeline stages and at morsel boundaries observe the signal, abort the
// statement with a typed core.KindCancelled error, and release the
// database lock normally — no goroutine is killed, no lock leaks. The
// checkpoint cost is one nil-check per morsel (16k rows) when no
// interrupt is armed.
type Interrupt struct {
	// Done, when non-nil, aborts the statement once closed.
	Done <-chan struct{}
	// Deadline, when non-zero, aborts the statement once passed.
	Deadline time.Time
}

// armed reports whether the interrupt can ever fire.
func (i *Interrupt) armed() bool { return i.Done != nil || !i.Deadline.IsZero() }

// InterruptFrom extracts the cancellation signal of a context: its Done
// channel and deadline, if any. The engine's ExecContext entry points use
// it so a context.WithTimeout caller gets real mid-statement cancellation.
func InterruptFrom(ctx context.Context) Interrupt {
	if ctx == nil {
		return Interrupt{}
	}
	intr := Interrupt{Done: ctx.Done()}
	if d, ok := ctx.Deadline(); ok {
		intr.Deadline = d
	}
	return intr
}

// Err reports the typed cancellation error once the interrupt has fired,
// or nil; the unarmed path is two comparisons. UDF runtimes poll it
// (udfrt.Env.Interrupt).
func (i *Interrupt) Err() error {
	if i.Done != nil {
		select {
		case <-i.Done:
			return core.Wrapf(core.KindCancelled, context.Canceled,
				"query cancelled")
		default:
		}
	}
	if !i.Deadline.IsZero() && !time.Now().Before(i.Deadline) {
		return core.Wrapf(core.KindCancelled, context.DeadlineExceeded,
			"query deadline exceeded")
	}
	return nil
}

// Stopped adapts Err to the vec.Pol.Stop morsel-boundary hook.
func (i *Interrupt) Stopped() bool { return i.Err() != nil }

// interruptErr is the engine's pipeline-stage checkpoint: nil while the
// statement may keep running, the typed cancellation error once it must
// abort. Called between stages of evalSelect and around UDF invocations.
func (f *frame) interruptErr() error { return f.Interrupt.Err() }

// checkBudgetRows enforces the per-query result-row budget. Zero budget
// admits everything; LIMIT clauses under the budget are unaffected.
func (f *frame) checkBudgetRows(rows int) error {
	if max := f.DB.MaxResultRows; max > 0 && int64(rows) > max {
		return core.Errorf(core.KindResource,
			"result exceeds the per-query row budget (%d rows > %d); add a LIMIT or raise the budget", rows, max)
	}
	return nil
}
