// Package mllib is the reproduction's stand-in for scikit-learn: a small
// nearest-centroid classifier exposed to PyLite as both the `mllib` module
// and a `sklearn.ensemble.RandomForestClassifier` shim, so the paper's
// Listings 1 and 3 (train_rnforest / find_best_classifier) run unmodified.
//
// The substitution is safe because the tooling claims the paper makes
// (import/export/debug/pickle round-trips of a trained model) do not depend
// on the statistical quality of the classifier, only on its API surface —
// fit(data, labels), predict(data), pickling.
package mllib

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/script"
)

// Classifier is a nearest-centroid classifier over scalar features. The
// n parameter mirrors RandomForestClassifier(n_estimators): it quantizes
// each feature into n sub-bins per class before computing centroids, so
// larger n genuinely changes (usually improves) the fit, giving the
// paper's parameter-sweep demo (Listing 3) something real to optimize.
type Classifier struct {
	N         int64
	Labels    []int64   // class label per centroid
	Centroids []float64 // feature centroid per centroid
	Trained   bool
}

// Fit trains on parallel slices of features and labels.
func (c *Classifier) Fit(data []float64, labels []int64) error {
	if len(data) != len(labels) {
		return core.Errorf(core.KindConstraint,
			"fit: data and labels have different lengths (%d vs %d)", len(data), len(labels))
	}
	if len(data) == 0 {
		return core.Errorf(core.KindConstraint, "fit: empty training set")
	}
	if c.N < 1 {
		c.N = 1
	}
	// Group by class, then split each class's sorted feature values into up
	// to N contiguous bins and keep one centroid per bin.
	byClass := map[int64][]float64{}
	order := []int64{}
	for i, f := range data {
		l := labels[i]
		if _, ok := byClass[l]; !ok {
			order = append(order, l)
		}
		byClass[l] = append(byClass[l], f)
	}
	c.Labels = c.Labels[:0]
	c.Centroids = c.Centroids[:0]
	for _, label := range order {
		feats := byClass[label]
		insertionSort(feats)
		bins := int(c.N)
		if bins > len(feats) {
			bins = len(feats)
		}
		per := len(feats) / bins
		rem := len(feats) % bins
		idx := 0
		for b := 0; b < bins; b++ {
			n := per
			if b < rem {
				n++
			}
			if n == 0 {
				continue
			}
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += feats[idx+k]
			}
			idx += n
			c.Labels = append(c.Labels, label)
			c.Centroids = append(c.Centroids, sum/float64(n))
		}
	}
	c.Trained = true
	return nil
}

func insertionSort(fs []float64) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// Predict returns the label of the nearest centroid for each feature.
func (c *Classifier) Predict(data []float64) ([]int64, error) {
	if !c.Trained {
		return nil, core.Errorf(core.KindConstraint, "predict: classifier is not fitted yet")
	}
	out := make([]int64, len(data))
	for i, f := range data {
		best, bestDist := int64(0), math.Inf(1)
		for j, cen := range c.Centroids {
			d := math.Abs(f - cen)
			if d < bestDist {
				bestDist = d
				best = c.Labels[j]
			}
		}
		out[i] = best
	}
	return out, nil
}

// Score returns the fraction of correct predictions.
func (c *Classifier) Score(data []float64, labels []int64) (float64, error) {
	if len(data) != len(labels) {
		return 0, core.Errorf(core.KindConstraint, "score: length mismatch")
	}
	if len(data) == 0 {
		return 0, nil
	}
	pred, err := c.Predict(data)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(data)), nil
}

const pickleClass = "mllib.Classifier"

// PickleClass implements script.Picklable.
func (c *Classifier) PickleClass() string { return pickleClass }

// PickleData implements script.Picklable with a compact binary encoding.
func (c *Classifier) PickleData() ([]byte, error) {
	buf := binary.BigEndian.AppendUint64(nil, uint64(c.N))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Labels)))
	for i := range c.Labels {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c.Labels[i]))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.Centroids[i]))
	}
	if c.Trained {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf, nil
}

func unpickle(data []byte) (*Classifier, error) {
	if len(data) < 12 {
		return nil, core.Errorf(core.KindProtocol, "truncated classifier pickle")
	}
	c := &Classifier{N: int64(binary.BigEndian.Uint64(data))}
	n := binary.BigEndian.Uint32(data[8:])
	data = data[12:]
	if len(data) != int(n)*16+1 {
		return nil, core.Errorf(core.KindProtocol, "corrupt classifier pickle")
	}
	for i := uint32(0); i < n; i++ {
		c.Labels = append(c.Labels, int64(binary.BigEndian.Uint64(data)))
		c.Centroids = append(c.Centroids, math.Float64frombits(binary.BigEndian.Uint64(data[8:])))
		data = data[16:]
	}
	c.Trained = data[0] == 1
	return c, nil
}

func init() {
	script.RegisterUnpickler(pickleClass, func(data []byte) (script.Value, error) {
		c, err := unpickle(data)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	})
	script.RegisterModule("mllib", buildModule)
	script.RegisterModule("sklearn.ensemble", buildSklearnModule)
	script.RegisterModule("sklearn", buildSklearnModule)
}

func toFloats(in *script.Interp, v script.Value) ([]float64, error) {
	items, err := script.ToSlice(in, v)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(items))
	for i, it := range items {
		f, ok := script.AsFloat(it)
		if !ok {
			return nil, core.Errorf(core.KindType, "expected numeric element, got %s", it.TypeName())
		}
		out[i] = f
	}
	return out, nil
}

func toInts(in *script.Interp, v script.Value) ([]int64, error) {
	items, err := script.ToSlice(in, v)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(items))
	for i, it := range items {
		switch n := it.(type) {
		case script.IntVal:
			out[i] = int64(n)
		case script.BoolVal:
			if n {
				out[i] = 1
			}
		case script.FloatVal:
			out[i] = int64(n)
		default:
			return nil, core.Errorf(core.KindType, "expected integer element, got %s", it.TypeName())
		}
	}
	return out, nil
}

// wrap exposes a Classifier to PyLite with the sklearn method surface.
func wrap(c *Classifier) *script.ObjectVal {
	obj := script.NewObject("Classifier")
	obj.Opaque = c
	obj.Methods["fit"] = func(in *script.Interp, args []script.Value, _ map[string]script.Value) (script.Value, error) {
		if len(args) != 2 {
			return nil, core.Errorf(core.KindType, "fit() takes exactly two arguments")
		}
		data, err := toFloats(in, args[0])
		if err != nil {
			return nil, err
		}
		labels, err := toInts(in, args[1])
		if err != nil {
			return nil, err
		}
		if err := c.Fit(data, labels); err != nil {
			return nil, err
		}
		return obj, nil
	}
	obj.Methods["predict"] = func(in *script.Interp, args []script.Value, _ map[string]script.Value) (script.Value, error) {
		if len(args) != 1 {
			return nil, core.Errorf(core.KindType, "predict() takes exactly one argument")
		}
		data, err := toFloats(in, args[0])
		if err != nil {
			return nil, err
		}
		pred, err := c.Predict(data)
		if err != nil {
			return nil, err
		}
		out := make([]script.Value, len(pred))
		for i, p := range pred {
			out[i] = script.IntVal(p)
		}
		return script.NewList(out...), nil
	}
	obj.Methods["score"] = func(in *script.Interp, args []script.Value, _ map[string]script.Value) (script.Value, error) {
		if len(args) != 2 {
			return nil, core.Errorf(core.KindType, "score() takes exactly two arguments")
		}
		data, err := toFloats(in, args[0])
		if err != nil {
			return nil, err
		}
		labels, err := toInts(in, args[1])
		if err != nil {
			return nil, err
		}
		s, err := c.Score(data, labels)
		if err != nil {
			return nil, err
		}
		return script.FloatVal(s), nil
	}
	obj.Attrs.SetStr("n_estimators", script.IntVal(c.N))
	return obj
}

func newClassifierBuiltin(name string) script.BuiltinFunc {
	return func(_ *script.Interp, args []script.Value, kwargs map[string]script.Value) (script.Value, error) {
		n := int64(1)
		if len(args) >= 1 {
			v, ok := args[0].(script.IntVal)
			if !ok {
				return nil, core.Errorf(core.KindType, "%s: n_estimators must be an integer", name)
			}
			n = int64(v)
		}
		if v, ok := kwargs["n_estimators"]; ok {
			iv, ok := v.(script.IntVal)
			if !ok {
				return nil, core.Errorf(core.KindType, "%s: n_estimators must be an integer", name)
			}
			n = int64(iv)
		}
		if n < 1 {
			return nil, core.Errorf(core.KindConstraint, "%s: n_estimators must be >= 1", name)
		}
		return wrap(&Classifier{N: n}), nil
	}
}

func buildModule(in *script.Interp) script.Value {
	m := script.NewObject("module")
	m.Attrs.SetStr("__name__", script.StrVal("mllib"))
	m.Methods["Classifier"] = newClassifierBuiltin("mllib.Classifier")
	return m
}

func buildSklearnModule(in *script.Interp) script.Value {
	m := script.NewObject("module")
	m.Attrs.SetStr("__name__", script.StrVal("sklearn.ensemble"))
	m.Methods["RandomForestClassifier"] = newClassifierBuiltin("RandomForestClassifier")
	ensemble := script.NewObject("module")
	ensemble.Attrs.SetStr("__name__", script.StrVal("sklearn.ensemble"))
	ensemble.Methods["RandomForestClassifier"] = newClassifierBuiltin("RandomForestClassifier")
	m.Attrs.SetStr("ensemble", ensemble)
	return m
}
