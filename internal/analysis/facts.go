package analysis

import (
	"go/types"
	"reflect"
	"sync"
)

// Fact is a cross-package datum an analyzer attaches to an exported
// package-level object (function, method, var, type) so that analysis of
// downstream packages can consult it — the mechanism behind "a goroutine
// running this function stops on a done signal" reaching the goleak pass
// of a package that spawns it. Concrete fact types must be pointers and
// must implement the marker method.
//
// This mirrors golang.org/x/tools/go/analysis.Fact, narrowed to
// package-level objects: facts on locals are not addressable across
// packages and are rejected by ExportObjectFact.
type Fact interface {
	AFact() // marker method
}

// FactStore accumulates facts across the packages of one analysis run:
// the driver shares one store over all packages, analyzed in dependency
// order. Safe for concurrent use.
type FactStore struct {
	mu    sync.Mutex
	facts map[factKey]Fact
}

// factKey addresses one fact: the analyzer that produced it and the
// object it is attached to.
type factKey struct {
	analyzer string
	object   string
	pkg      string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: make(map[factKey]Fact)}
}

// ObjectKey renders a stable cross-package name for a package-level object:
// "path.Name" for plain objects, "path.(T).Name" / "path.(*T).Name" for
// methods. It returns ok=false for objects that are not addressable across
// packages (locals, receivers, interface methods of unnamed types).
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			rt := recv.Type()
			ptr := ""
			if p, isPtr := rt.(*types.Pointer); isPtr {
				rt = p.Elem()
				ptr = "*"
			}
			named, isNamed := rt.(*types.Named)
			if !isNamed {
				return "", false
			}
			return obj.Pkg().Path() + ".(" + ptr + named.Obj().Name() + ")." + name, true
		}
	}
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return "", false // local object
	}
	return obj.Pkg().Path() + "." + name, true
}

// ExportObjectFact records fact for obj. Facts on objects that are not
// package-level (no stable cross-package name) are dropped silently — they
// could never be imported anyway.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil {
		return
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return
	}
	p.Facts.put(factKey{p.Analyzer.Name, key, obj.Pkg().Path()}, fact)
}

// ImportObjectFact copies the fact recorded for obj by this analyzer into
// *fact and reports whether one existed. fact must be a pointer of the
// same concrete type that was exported.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	return p.Facts.get(factKey{p.Analyzer.Name, key, obj.Pkg().Path()}, fact)
}

func (s *FactStore) put(k factKey, fact Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.facts == nil {
		s.facts = make(map[factKey]Fact)
	}
	s.facts[k] = fact
}

// get copies the stored fact into dst (a pointer to the same concrete
// type) via reflection.
func (s *FactStore) get(k factKey, dst Fact) bool {
	s.mu.Lock()
	stored, ok := s.facts[k]
	s.mu.Unlock()
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(stored)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}
