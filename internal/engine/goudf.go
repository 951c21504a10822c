package engine

import "repro/internal/udfrt/gort"

// RegisterGoUDF registers a typed Go function as a native UDF in one step:
// the implementation goes into the process-wide GO runtime table and the
// matching catalog entry (parameter/result types inferred by reflection) is
// created — CREATE OR REPLACE semantics. SQL can then call it like any
// other UDF:
//
//	db.RegisterGoUDF("haversine", func(lat1, lon1, lat2, lon2 []float64) []float64 { ... })
//	conn.Exec(`SELECT haversine(a, b, c, d) FROM coords`)
//
// For custom parameter names or a hand-written declaration, register the
// implementation with gort.Register and issue CREATE FUNCTION ... LANGUAGE
// GO yourself.
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

// registerGoUDF validates the signature, commits the catalog entry, and
// installs the implementation only once the commit succeeded: calls read
// gort's table, so a refused signature or commit must leave the old
// implementation in place.
func (db *DB) registerGoUDF(name string, fn any, elementwise bool) error {
	def, err := gort.InferDef(name, fn, elementwise)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	def.ID = db.funcID(name)
	if err := db.mutate(Change{Kind: ChangeRegisterGoUDF, Func: def}, nil); err != nil {
		return err
	}
	// InferDef accepted the signature, so registering cannot fail.
	if elementwise {
		return gort.RegisterElementwise(name, fn)
	}
	return gort.Register(name, fn)
}
