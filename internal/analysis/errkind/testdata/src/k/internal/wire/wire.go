// Package wire exercises the errkind analyzer.
package wire

import (
	"context"
	"net"

	"core"
	"prod"
)

// --- findings ---

func rekindLocal() error {
	err := prod.Interrupted()
	if err != nil {
		return core.Wrapf(core.KindIO, err, "read failed") // want "re-kinds a possibly cancellation-critical error as KindIO"
	}
	return nil
}

func rekindDirect() error {
	return core.Wrapf(core.KindProtocol, prod.Interrupted(), "handshake lost") // want "re-kinds a possibly cancellation-critical error as KindProtocol"
}

func rekindShed() error {
	err := prod.Shed()
	return core.Wrapf(core.KindUnknown, err, "submit failed") // want "re-kinds a possibly cancellation-critical error as KindUnknown"
}

func rekindTransitive() error {
	err := prod.Relay()
	return core.Wrapf(core.KindRuntime, err, "stage failed") // want "re-kinds a possibly cancellation-critical error as KindRuntime"
}

func rekindCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return core.Wrapf(core.KindRuntime, err, "loop aborted") // want "re-kinds a possibly cancellation-critical error as KindRuntime"
	}
	return nil
}

func localCancel() error {
	return core.Wrapf(core.KindCancelled, nil, "stopping")
}

func rekindViaLocal() error {
	err := localCancel()
	return core.Wrapf(core.KindAuth, err, "session denied") // want "re-kinds a possibly cancellation-critical error as KindAuth"
}

func aliasFlow() error {
	err := prod.Interrupted()
	e2 := err
	return core.Wrapf(core.KindName, e2, "lookup failed") // want "re-kinds a possibly cancellation-critical error as KindName"
}

// --- clean ---

// Reassignment kills the mark: by the Wrapf the error is a plain IO error.
func reassignedOK() error {
	err := prod.Interrupted()
	if err != nil {
		return err
	}
	err = prod.ReadFile()
	if err != nil {
		return core.Wrapf(core.KindIO, err, "read failed")
	}
	return nil
}

// Wrapping with the same critical kind preserves the classification.
func preserveKind() error {
	err := prod.Interrupted()
	return core.Wrapf(core.KindCancelled, err, "stage aborted")
}

// A computed kind (core.KindOf) is always preserving.
func preserveDynamic() error {
	err := prod.Interrupted()
	return core.Wrapf(core.KindOf(err), err, "stage aborted")
}

// Wrapping a non-cancellable error under any kind is fine.
func plainWrap() error {
	err := prod.ReadFile()
	return core.Wrapf(core.KindIO, err, "loading snapshot")
}

// A producer that swallows the error does not taint its callers.
func checkedOK() error {
	if prod.Checked() {
		return core.Wrapf(core.KindProtocol, prod.ReadFile(), "probe failed")
	}
	return nil
}

// The escape hatch needs a reason and silences the finding.
func deliberate() error {
	err := prod.Interrupted()
	//errkind:ok shutdown surfaces as a protocol error by wire contract
	return core.Wrapf(core.KindProtocol, err, "connection closing")
}

// --- unanalysed packages (the standard library) ---

// A context handed to a package errkind never analysed comes back as the
// returned error when the context ends: net.Dialer.DialContext.
func rekindDial(ctx context.Context) error {
	var d net.Dialer
	_, err := d.DialContext(ctx, "tcp", "localhost:1")
	if err != nil {
		return core.Wrapf(core.KindIO, err, "connect") // want "re-kinds a possibly cancellation-critical error as KindIO"
	}
	return nil
}

// Keeping the kind when the context is what ended the dial is clean.
func dialKeepsKind(ctx context.Context) error {
	var d net.Dialer
	_, err := d.DialContext(ctx, "tcp", "localhost:1")
	if cerr := ctx.Err(); err != nil && cerr != nil {
		return core.Wrapf(core.KindCancelled, cerr, "connect aborted")
	}
	return err
}

// No context goes in, so none comes out.
func dialNoCtx() error {
	_, err := net.Dial("tcp", "localhost:1")
	if err != nil {
		return core.Wrapf(core.KindIO, err, "connect")
	}
	return nil
}

// prod was analysed: its ReadCtx has no Cancellable fact, and that means no.
func analysedCalleeOK(ctx context.Context) error {
	if err := prod.ReadCtx(ctx); err != nil {
		return core.Wrapf(core.KindIO, err, "read")
	}
	return nil
}
