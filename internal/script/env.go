package script

import "maps"

// Env is a module scope: the interpreter's one name-keyed table. Function
// locals live in frame slots; module scope stays addressable by name because
// embedders inject and read bindings (`_conn`, the UDF itself) after the
// code that uses them was resolved.
type Env struct {
	vars map[string]Value
	// shadowed is set once a builtin's name is bound here. Until then a
	// read that resolved to a builtin skips the table.
	shadowed bool
}

// Get resolves a name in module scope, then among the builtins.
func (e *Env) Get(name string) (Value, bool) {
	if v, ok := e.vars[name]; ok {
		return v, true
	}
	if i, ok := builtinIndex[name]; ok {
		return builtinTable[i], true
	}
	return nil, false
}

// Set binds a name at module level.
func (e *Env) Set(name string, v Value) {
	if _, ok := builtinIndex[name]; ok {
		e.shadowed = true
	}
	e.vars[name] = v
}

// Snapshot copies the module-level bindings, for debugger variable
// inspection.
func (e *Env) Snapshot() map[string]Value { return maps.Clone(e.vars) }
