// Package pyrt is the PYTHON UDF runtime: stored function bodies execute in
// the embedded PyLite interpreter, whole columns crossing the boundary as
// lists (MonetDB/Python's model) — for INTEGER and DOUBLE without
// conversion: the list wraps the column's vector. It is the debuggable
// runtime: every call honors the Env.Invoke hook, which is where the
// in-server remote debugger and trace-based tooling attach.
package pyrt

import (
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/udfrt"
)

// Name is the LANGUAGE keyword this runtime serves.
const Name = udfrt.Python

// Runtime is the PYTHON runtime singleton.
type Runtime struct{}

// New returns the PYTHON runtime.
func New() *Runtime { return &Runtime{} }

// Compile wraps the stored body into a callable function definition
// (MonetDB stores only the body — paper Listing 1) and parses it.
func (*Runtime) Compile(def *storage.FuncDef) (udfrt.Callable, error) {
	src := transform.WrapFunction(def.Name, def.Params.Names(), def.Body)
	mod, err := script.Parse(def.Name, src)
	if err != nil {
		return nil, core.Errorf(core.KindSyntax, "in UDF %s: %v", def.Name, core.Message(err))
	}
	return &callable{def: def, mod: mod}, nil
}

// callable is one compiled PYTHON UDF: the parsed wrapper module, whose
// source lines feed the debugger.
type callable struct {
	def *storage.FuncDef
	mod *script.Module
}

// instance is a prepared interpreter with the UDF bound — memoized on the
// Env so a tuple-at-a-time row loop reuses one interpreter while batch
// calls (one Env each) stay isolated.
type instance struct {
	in *script.Interp
	fn script.Value
}

func (c *callable) prepare(env *udfrt.Env) (*instance, error) {
	v, err := env.Memo(c, func() (any, error) {
		in := script.NewInterp()
		in.FS = env.FS
		in.MaxSteps = env.MaxSteps
		if env.Interrupt != nil {
			in.Interrupt = env.Interrupt.Err
		}
		in.Stdout = env.Out()
		genv, err := in.Run(c.mod)
		if err != nil {
			return nil, udfrt.WrapErr(c.def.Name, err)
		}
		fn, ok := genv.Get(c.def.Name)
		if !ok {
			return nil, core.Errorf(core.KindRuntime, "UDF %s did not define itself", c.def.Name)
		}
		if env.Loopback != nil {
			genv.Set("_conn", NewConn(env.Loopback))
		}
		return &instance{in: in, fn: fn}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*instance), nil
}

// Call implements udfrt.Callable: convert the batch to interpreter values,
// invoke (through the Env.Invoke debug hook when installed), convert back.
func (c *callable) Call(env *udfrt.Env, in *udfrt.Batch) (*udfrt.Batch, error) {
	inst, err := c.prepare(env)
	if err != nil {
		return nil, err
	}
	call := func() (script.Value, error) { return inst.in.Call(inst.fn, Args(in)) }
	var out script.Value
	if env.Invoke != nil {
		out, err = env.Invoke(c.def.Name, inst.in, c.mod.Lines, call)
	} else {
		out, err = call()
	}
	if err != nil {
		return nil, udfrt.WrapErr(c.def.Name, err)
	}
	return Result(c.def, out)
}

// Result converts a UDF's return value into a batch matching def's declared
// result — for a table function, a dict keyed by column name, a positional
// tuple, a bare list (single column) or a scalar (single row); otherwise
// one column. Column lengths may still differ; udfrt.Shape broadcasts.
// devUDF's local runs convert through it as the server does.
func Result(def *storage.FuncDef, v script.Value) (*udfrt.Batch, error) {
	if !def.IsTable {
		col, err := ValueToColumn(v, def.Returns[0].Name, def.Returns[0].Type)
		if err != nil {
			return nil, err
		}
		return &udfrt.Batch{Cols: []*storage.Column{col}, Rows: col.Len()}, nil
	}
	out := &udfrt.Batch{}
	switch v := v.(type) {
	case *script.DictVal:
		for _, ret := range def.Returns {
			cell, ok := v.GetStr(ret.Name)
			if !ok {
				return nil, core.Errorf(core.KindConstraint,
					"UDF %s result is missing column %q", def.Name, ret.Name)
			}
			col, err := ValueToColumn(cell, ret.Name, ret.Type)
			if err != nil {
				return nil, err
			}
			out.Cols = append(out.Cols, col)
		}
	case *script.TupleVal:
		if len(v.Items) != len(def.Returns) {
			return nil, core.Errorf(core.KindConstraint,
				"UDF %s returned %d columns, declared %d", def.Name, len(v.Items), len(def.Returns))
		}
		for i, ret := range def.Returns {
			col, err := ValueToColumn(v.Items[i], ret.Name, ret.Type)
			if err != nil {
				return nil, err
			}
			out.Cols = append(out.Cols, col)
		}
	default:
		if len(def.Returns) != 1 {
			return nil, core.Errorf(core.KindConstraint,
				"UDF %s must return a dict or tuple of %d columns", def.Name, len(def.Returns))
		}
		col, err := ValueToColumn(v, def.Returns[0].Name, def.Returns[0].Type)
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, col)
	}
	for _, col := range out.Cols {
		if col.Len() > out.Rows {
			out.Rows = col.Len()
		}
	}
	return out, nil
}
