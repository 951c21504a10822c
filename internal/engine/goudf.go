package engine

import (
	"strings"

	"repro/internal/storage"
	"repro/internal/udfrt"
	"repro/internal/udfrt/gort"
)

// RegisterGoUDF registers a typed Go function as a native UDF in one step:
// it commits a catalog entry (parameter/result types inferred by
// reflection) that carries the function — CREATE OR REPLACE semantics.
// SQL can then call it like any other UDF:
//
//	db.RegisterGoUDF("haversine", func(lat1, lon1, lat2, lon2 []float64) []float64 { ... })
//	conn.Exec(`SELECT haversine(a, b, c, d) FROM coords`)
//
// For custom parameter names, declare CREATE FUNCTION ... LANGUAGE GO
// { haversine }: it takes this entry's function, now and at every later
// registration of the name. A builtin's name is refused. The function is
// not logged: a recovered database must register it again.
//
// Argument slices are read-only: the zero-copy fast path may pass the
// stored table's backing vectors. Allocate fresh slices for results.
func (db *DB) RegisterGoUDF(name string, fn any) error {
	return db.registerGoUDF(name, fn, false)
}

// RegisterGoUDFElementwise is RegisterGoUDF for functions that are
// element-wise (row i of the result depends only on row i of the
// arguments), safe to call from multiple goroutines, and keep no argument
// slice after they return: the engine may split their batches into
// morsels executed across workers, so calls scale with cores. The
// registration is a contract the engine holds the function to. A function
// that takes a slice and returns a scalar is refused here with a type
// error; an answer whose length is not its input's row count is a
// constraint error at the call. Batch-dependent implementations
// (aggregates, prefix sums, stateful closures) must use RegisterGoUDF,
// which keeps whole-batch semantics.
func (db *DB) RegisterGoUDFElementwise(name string, fn any) error {
	return db.registerGoUDF(name, fn, true)
}

// registerGoUDF validates the name and the signature, then commits the
// entry that carries fn; a refusal leaves the catalog as it was.
func (db *DB) registerGoUDF(name string, fn any, elementwise bool) error {
	if err := refuseBuiltinName(name); err != nil {
		return err
	}
	def, err := gort.InferDef(name, fn, elementwise)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	def.ID = db.funcID(name)
	return db.mutate(Change{Kind: ChangeRegisterGoUDF, Func: def}, nil)
}

// follow hands a registered function to every other GO entry whose symbol
// is its name: each is replaced by a copy that carries reg's function,
// compiled afresh. It returns the entries it replaced. Called with db.mu
// held.
func (db *DB) follow(reg *storage.FuncDef) (replaced []*storage.FuncDef) {
	for _, g := range db.cat.Functions() {
		if g == reg || udfrt.Canonical(g.Language) != udfrt.Go || !strings.EqualFold(gort.Symbol(g), reg.Name) {
			continue
		}
		next := *g
		next.Native, next.Elementwise = reg.Native, reg.Elementwise
		next.Compiled = compiled(&next)
		_ = db.cat.InstallFunction(&next, true)
		replaced = append(replaced, g)
	}
	return replaced
}
