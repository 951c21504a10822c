package script

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// The reproduction's stand-in for scikit-learn: a small nearest-centroid
// classifier exposed to PyLite as `sklearn.ensemble.RandomForestClassifier`,
// so the paper's Listings 1 and 3 (train_rnforest / find_best_classifier)
// run unmodified.
//
// The substitution is safe because the tooling claims the paper makes
// (import/export/debug/pickle round-trips of a trained model) do not depend
// on the statistical quality of the classifier, only on its API surface —
// fit(data, labels), predict(data), pickling.

// classifier is a nearest-centroid classifier over scalar features. The
// n parameter mirrors RandomForestClassifier(n_estimators): it quantizes
// each feature into n sub-bins per class before computing centroids, so
// larger n genuinely changes (usually improves) the fit, giving the
// paper's parameter-sweep demo (Listing 3) something real to optimize.
type classifier struct {
	N         int64
	Labels    []int64   // class label per centroid
	Centroids []float64 // feature centroid per centroid
	Trained   bool
}

// fit trains on parallel slices of features and labels.
func (c *classifier) fit(data []float64, labels []int64) error {
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

// predict returns the label of the nearest centroid for each feature.
func (c *classifier) predict(data []float64) ([]int64, error) {
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

// score returns the fraction of correct predictions.
func (c *classifier) score(data []float64, labels []int64) (float64, error) {
	if len(data) != len(labels) {
		return 0, core.Errorf(core.KindConstraint, "score: length mismatch")
	}
	if len(data) == 0 {
		return 0, nil
	}
	pred, err := c.predict(data)
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

// classifierClass names a pickled classifier: the one class a pickle object
// tag may carry. It is part of the pickle format, so models pickled under it
// keep loading.
const classifierClass = "mllib.Classifier"

// pickleData encodes the classifier's state compactly.
func (c *classifier) pickleData() []byte {
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
	return buf
}

func unpickleClassifier(data []byte) (*classifier, error) {
	if len(data) < 12 {
		return nil, core.Errorf(core.KindProtocol, "truncated classifier pickle")
	}
	c := &classifier{N: int64(binary.BigEndian.Uint64(data))}
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

func toFloats(in *Interp, v Value) ([]float64, error) {
	items, err := toSlice(in, v)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(items))
	for i, it := range items {
		f, ok := asFloat(it)
		if !ok {
			return nil, core.Errorf(core.KindType, "expected numeric element, got %s", it.TypeName())
		}
		out[i] = f
	}
	return out, nil
}

func toInts(in *Interp, v Value) ([]int64, error) {
	items, err := toSlice(in, v)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(items))
	for i, it := range items {
		switch n := it.(type) {
		case IntVal:
			out[i] = int64(n)
		case BoolVal:
			if n {
				out[i] = 1
			}
		case FloatVal:
			out[i] = int64(n)
		default:
			return nil, core.Errorf(core.KindType, "expected integer element, got %s", it.TypeName())
		}
	}
	return out, nil
}

// classifierObject exposes a classifier to PyLite with the sklearn method surface.
func classifierObject(c *classifier) *ObjectVal {
	obj := NewObject("Classifier")
	obj.Opaque = c
	obj.Methods["fit"] = func(in *Interp, args []Value, _ map[string]Value) (Value, error) {
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
		if err := c.fit(data, labels); err != nil {
			return nil, err
		}
		return obj, nil
	}
	obj.Methods["predict"] = func(in *Interp, args []Value, _ map[string]Value) (Value, error) {
		if len(args) != 1 {
			return nil, core.Errorf(core.KindType, "predict() takes exactly one argument")
		}
		data, err := toFloats(in, args[0])
		if err != nil {
			return nil, err
		}
		pred, err := c.predict(data)
		if err != nil {
			return nil, err
		}
		out := make([]Value, len(pred))
		for i, p := range pred {
			out[i] = IntVal(p)
		}
		return NewList(out...), nil
	}
	obj.Methods["score"] = func(in *Interp, args []Value, _ map[string]Value) (Value, error) {
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
		s, err := c.score(data, labels)
		if err != nil {
			return nil, err
		}
		return FloatVal(s), nil
	}
	obj.Attrs.SetStr("n_estimators", IntVal(c.N))
	return obj
}

// newRandomForest is RandomForestClassifier(n_estimators=1).
func newRandomForest(_ *Interp, args []Value, kwargs map[string]Value) (Value, error) {
	const name = "RandomForestClassifier"
	n := int64(1)
	if len(args) >= 1 {
		v, ok := args[0].(IntVal)
		if !ok {
			return nil, core.Errorf(core.KindType, "%s: n_estimators must be an integer", name)
		}
		n = int64(v)
	}
	if v, ok := kwargs["n_estimators"]; ok {
		iv, ok := v.(IntVal)
		if !ok {
			return nil, core.Errorf(core.KindType, "%s: n_estimators must be an integer", name)
		}
		n = int64(iv)
	}
	if n < 1 {
		return nil, core.Errorf(core.KindConstraint, "%s: n_estimators must be >= 1", name)
	}
	return classifierObject(&classifier{N: n}), nil
}

// sklearnModule is both `sklearn` and `sklearn.ensemble`: `import
// sklearn.ensemble` binds the name sklearn to it, so it carries the
// classifier and an `ensemble` attribute that does too.
func sklearnModule() Value {
	m := NewObject("module")
	m.Attrs.SetStr("__name__", StrVal("sklearn.ensemble"))
	m.Methods["RandomForestClassifier"] = newRandomForest
	ensemble := NewObject("module")
	ensemble.Attrs.SetStr("__name__", StrVal("sklearn.ensemble"))
	ensemble.Methods["RandomForestClassifier"] = newRandomForest
	m.Attrs.SetStr("ensemble", ensemble)
	return m
}
