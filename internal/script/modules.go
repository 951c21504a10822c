package script

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
)

// stdModule is what `import X` can name: the one place that decides which
// modules a PYTHON UDF may import.
func stdModule(in *Interp, name string) (Value, bool) {
	switch name {
	case "pickle":
		return pickleModule(in), true
	case "os":
		return osModule(in), true
	case "math":
		return mathModule(), true
	case "numpy":
		return numpyModule(in), true
	case "random":
		return randomModule(in), true
	case "sklearn", "sklearn.ensemble":
		return sklearnModule(), true
	}
	return nil, false
}

func pickleModule(in *Interp) Value {
	m := NewObject("module")
	m.Attrs.SetStr("__name__", StrVal("pickle"))
	m.Methods["dumps"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("pickle.dumps", "takes exactly one argument")
		}
		b, err := Marshal(args[0])
		if err != nil {
			return nil, err
		}
		return BytesVal(b), nil
	}
	m.Methods["loads"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("pickle.loads", "takes exactly one argument")
		}
		var raw []byte
		switch v := args[0].(type) {
		case BytesVal:
			raw = v
		case StrVal:
			raw = []byte(v)
		default:
			return nil, argErr("pickle.loads", "argument must be bytes")
		}
		return UnmarshalColumns(raw)
	}
	m.Methods["dump"] = func(ii *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr("pickle.dump", "takes exactly two arguments")
		}
		obj, ok := args[1].(*ObjectVal)
		if !ok || obj.Class != "file" {
			return nil, argErr("pickle.dump", "second argument must be a file")
		}
		b, err := Marshal(args[0])
		if err != nil {
			return nil, err
		}
		write, ok := obj.Methods["write"]
		if !ok {
			return nil, core.Errorf(core.KindIO, "file is not open for writing")
		}
		if _, err := write(ii, []Value{StrVal(b)}, nil); err != nil {
			return nil, err
		}
		return None, nil
	}
	m.Methods["load"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("pickle.load", "takes exactly one argument")
		}
		obj, ok := args[0].(*ObjectVal)
		if !ok || obj.Class != "file" {
			return nil, argErr("pickle.load", "argument must be a file")
		}
		h, ok := obj.Opaque.(*fileHandle)
		if !ok {
			return nil, core.Errorf(core.KindIO, "file is not open for reading")
		}
		return UnmarshalColumns(h.data)
	}
	return m
}

func osModule(in *Interp) Value {
	m := NewObject("module")
	m.Attrs.SetStr("__name__", StrVal("os"))
	m.Methods["listdir"] = func(ii *Interp, args []Value, _ map[string]Value) (Value, error) {
		dir := "."
		if len(args) >= 1 {
			s, ok := args[0].(StrVal)
			if !ok {
				return nil, argErr("os.listdir", "path must be a string")
			}
			dir = string(s)
		}
		if ii.FS == nil {
			return nil, core.Errorf(core.KindIO, "file access is not available in this context")
		}
		names, err := ii.FS.ListDir(dir)
		if err != nil {
			return nil, err
		}
		out := make([]Value, len(names))
		for i, n := range names {
			out[i] = StrVal(n)
		}
		return &ListVal{Items: out}, nil
	}
	path := NewObject("module")
	path.Methods["join"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		joined := ""
		for i, a := range args {
			s, ok := a.(StrVal)
			if !ok {
				return nil, argErr("os.path.join", "arguments must be strings")
			}
			if i == 0 {
				joined = string(s)
				continue
			}
			if joined != "" && joined[len(joined)-1] != '/' {
				joined += "/"
			}
			joined += string(s)
		}
		return StrVal(joined), nil
	}
	path.Methods["basename"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("os.path.basename", "takes exactly one argument")
		}
		s, ok := args[0].(StrVal)
		if !ok {
			return nil, argErr("os.path.basename", "argument must be a string")
		}
		str := string(s)
		for i := len(str) - 1; i >= 0; i-- {
			if str[i] == '/' {
				return StrVal(str[i+1:]), nil
			}
		}
		return s, nil
	}
	m.Attrs.SetStr("path", path)
	return m
}

func mathFn1(name string, fn func(float64) float64) BuiltinFunc {
	return func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr(name, "takes exactly one argument")
		}
		f, ok := asFloat(args[0])
		if !ok {
			return nil, argErr(name, "argument must be a number")
		}
		return FloatVal(fn(f)), nil
	}
}

func mathModule() Value {
	m := NewObject("module")
	m.Attrs.SetStr("__name__", StrVal("math"))
	m.Attrs.SetStr("pi", FloatVal(math.Pi))
	m.Attrs.SetStr("e", FloatVal(math.E))
	m.Methods["sqrt"] = mathFn1("math.sqrt", math.Sqrt)
	m.Methods["floor"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("math.floor", "takes exactly one argument")
		}
		f, ok := asFloat(args[0])
		if !ok {
			return nil, argErr("math.floor", "argument must be a number")
		}
		return IntVal(int64(math.Floor(f))), nil
	}
	m.Methods["ceil"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("math.ceil", "takes exactly one argument")
		}
		f, ok := asFloat(args[0])
		if !ok {
			return nil, argErr("math.ceil", "argument must be a number")
		}
		return IntVal(int64(math.Ceil(f))), nil
	}
	m.Methods["log"] = mathFn1("math.log", math.Log)
	m.Methods["log2"] = mathFn1("math.log2", math.Log2)
	m.Methods["exp"] = mathFn1("math.exp", math.Exp)
	m.Methods["sin"] = mathFn1("math.sin", math.Sin)
	m.Methods["cos"] = mathFn1("math.cos", math.Cos)
	m.Methods["tan"] = mathFn1("math.tan", math.Tan)
	m.Methods["asin"] = mathFn1("math.asin", math.Asin)
	m.Methods["acos"] = mathFn1("math.acos", math.Acos)
	m.Methods["atan"] = mathFn1("math.atan", math.Atan)
	m.Methods["fabs"] = mathFn1("math.fabs", math.Abs)
	m.Methods["pow"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr("math.pow", "takes exactly two arguments")
		}
		a, ok1 := asFloat(args[0])
		b, ok2 := asFloat(args[1])
		if !ok1 || !ok2 {
			return nil, argErr("math.pow", "arguments must be numbers")
		}
		return FloatVal(math.Pow(a, b)), nil
	}
	return m
}

// numpyModule is a narrow shim: the paper's Listing 3 calls numpy.sum on a
// boolean vector; we provide the vectorized reductions used in the demos.
func numpyModule(in *Interp) Value {
	m := NewObject("module")
	m.Attrs.SetStr("__name__", StrVal("numpy"))
	reduce := func(name string, fn func([]float64) float64) BuiltinFunc {
		return func(ii *Interp, args []Value, _ map[string]Value) (Value, error) {
			if len(args) != 1 {
				return nil, argErr(name, "takes exactly one argument")
			}
			s, err := ii.cells(args[0])
			if err != nil {
				return nil, err
			}
			fs := make([]float64, 0, s.n)
			for it, ok := s.next(); ok; it, ok = s.next() {
				f, ok := it.asFloat()
				if !ok {
					return nil, argErr(name, "elements must be numbers")
				}
				fs = append(fs, f)
			}
			return FloatVal(fn(fs)), nil
		}
	}
	m.Methods["sum"] = func(ii *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		// numpy.sum of a bool vector counts Trues and returns an int.
		return biSum(ii, args, kwargs)
	}
	m.Methods["mean"] = reduce("numpy.mean", func(fs []float64) float64 {
		if len(fs) == 0 {
			return math.NaN()
		}
		t := 0.0
		for _, f := range fs {
			t += f
		}
		return t / float64(len(fs))
	})
	m.Methods["std"] = reduce("numpy.std", func(fs []float64) float64 {
		if len(fs) == 0 {
			return math.NaN()
		}
		mean := 0.0
		for _, f := range fs {
			mean += f
		}
		mean /= float64(len(fs))
		acc := 0.0
		for _, f := range fs {
			acc += (f - mean) * (f - mean)
		}
		return math.Sqrt(acc / float64(len(fs)))
	})
	m.Methods["median"] = reduce("numpy.median", func(fs []float64) float64 {
		if len(fs) == 0 {
			return math.NaN()
		}
		cp := append([]float64(nil), fs...)
		sort.Float64s(cp)
		n := len(cp)
		if n%2 == 1 {
			return cp[n/2]
		}
		return (cp[n/2-1] + cp[n/2]) / 2
	})
	m.Methods["array"] = func(ii *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("numpy.array", "takes exactly one argument")
		}
		return biList(ii, args, nil)
	}
	m.Methods["abs"] = func(ii *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("numpy.abs", "takes exactly one argument")
		}
		s, err := ii.cells(args[0])
		if err != nil {
			return nil, err
		}
		out := &ListVal{}
		for it, ok := s.next(); ok; it, ok = s.next() {
			v, err := biAbs(ii, []val{it})
			if err != nil {
				return nil, err
			}
			out.push(v)
		}
		return out, nil
	}
	return m
}

// randomModule is deterministic by default (seed 42) so tests, examples and
// the sampling option behave reproducibly; scripts may reseed.
func randomModule(in *Interp) Value {
	rng := rand.New(rand.NewSource(42))
	m := NewObject("module")
	m.Attrs.SetStr("__name__", StrVal("random"))
	m.Methods["seed"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("random.seed", "takes exactly one argument")
		}
		n, ok := asInt(args[0])
		if !ok {
			return nil, argErr("random.seed", "argument must be an integer")
		}
		rng = rand.New(rand.NewSource(n))
		return None, nil
	}
	m.Methods["random"] = func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
		return FloatVal(rng.Float64()), nil
	}
	m.Methods["randint"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr("random.randint", "takes exactly two arguments")
		}
		lo, ok1 := asInt(args[0])
		hi, ok2 := asInt(args[1])
		if !ok1 || !ok2 || hi < lo {
			return nil, argErr("random.randint", "arguments must be integers with a <= b")
		}
		return IntVal(lo + rng.Int63n(hi-lo+1)), nil
	}
	m.Methods["shuffle"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, argErr("random.shuffle", "takes exactly one argument")
		}
		l, ok := args[0].(*ListVal)
		if !ok {
			return nil, argErr("random.shuffle", "argument must be a list")
		}
		items := l.Boxed()
		rng.Shuffle(len(items), func(i, j int) {
			items[i], items[j] = items[j], items[i]
		})
		return None, nil
	}
	m.Methods["sample"] = func(ii *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 2 {
			return nil, argErr("random.sample", "takes exactly two arguments")
		}
		items, err := toSlice(ii, args[0])
		if err != nil {
			return nil, err
		}
		k, ok := asInt(args[1])
		if !ok || k < 0 || k > int64(len(items)) {
			return nil, argErr("random.sample", "sample larger than population or negative")
		}
		idx := rng.Perm(len(items))[:k]
		out := make([]Value, k)
		for i, j := range idx {
			out[i] = items[j]
		}
		return &ListVal{Items: out}, nil
	}
	return m
}
