package script

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitPredict(t *testing.T) {
	c := &classifier{N: 1}
	if err := c.fit([]float64{1, 1.1, 0.9, 5, 5.1, 4.9}, []int64{0, 0, 0, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	pred, err := c.predict([]float64{1.05, 5.05})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 0 || pred[1] != 1 {
		t.Fatalf("pred = %v", pred)
	}
}

func TestFitValidation(t *testing.T) {
	c := &classifier{N: 1}
	if err := c.fit([]float64{1}, []int64{0, 1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if err := c.fit(nil, nil); err == nil {
		t.Fatal("empty training set should fail")
	}
	if _, err := c.predict([]float64{1}); err == nil {
		t.Fatal("predict before fit should fail")
	}
}

func TestMoreEstimatorsImproveBimodalFit(t *testing.T) {
	// Class 0 has a bimodal feature distribution; a single centroid per
	// class cannot separate it from class 1 sitting in between, but several
	// can. This mirrors the paper's n_estimators sweep having a real optimum.
	rng := rand.New(rand.NewSource(7))
	var data []float64
	var labels []int64
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			// class 0: clusters at 0 and 10
			v := rng.NormFloat64() * 0.3
			if i%4 == 0 {
				v += 10
			}
			data = append(data, v)
			labels = append(labels, 0)
		} else {
			// class 1: cluster at 5
			data = append(data, 5+rng.NormFloat64()*0.3)
			labels = append(labels, 1)
		}
	}
	score := func(n int64) float64 {
		c := &classifier{N: n}
		if err := c.fit(data, labels); err != nil {
			t.Fatal(err)
		}
		s, err := c.score(data, labels)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s1, s4 := score(1), score(4); s4 <= s1 {
		t.Fatalf("expected more estimators to help: score(1)=%v score(4)=%v", s1, s4)
	}
}

func TestPickleRoundTrip(t *testing.T) {
	c := &classifier{N: 3}
	if err := c.fit([]float64{1, 2, 3, 10, 11, 12}, []int64{0, 0, 0, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(classifierObject(c))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := v.(*ObjectVal)
	if !ok {
		t.Fatalf("unpickled %T", v)
	}
	c2, ok := obj.Opaque.(*classifier)
	if !ok {
		t.Fatalf("opaque %T", obj.Opaque)
	}
	if c2.N != c.N || len(c2.Centroids) != len(c.Centroids) || !c2.Trained {
		t.Fatalf("round trip lost state: %+v vs %+v", c2, c)
	}
	for i := range c.Centroids {
		if c.Centroids[i] != c2.Centroids[i] || c.Labels[i] != c2.Labels[i] {
			t.Fatalf("centroid %d mismatch", i)
		}
	}
}

func TestPicklePropertyRoundTrip(t *testing.T) {
	f := func(feats []float64, rawLabels []uint8, n uint8) bool {
		if len(feats) == 0 {
			return true
		}
		labels := make([]int64, len(feats))
		for i := range labels {
			if i < len(rawLabels) {
				labels[i] = int64(rawLabels[i] % 3)
			}
		}
		c := &classifier{N: int64(n%8) + 1}
		if err := c.fit(feats, labels); err != nil {
			return false
		}
		c2, err := unpickleClassifier(c.pickleData())
		if err != nil {
			return false
		}
		if len(c2.Centroids) != len(c.Centroids) {
			return false
		}
		for i := range c.Centroids {
			// NaN-safe comparison via bit equality is unnecessary here;
			// quick-generated NaNs fail Fit's arithmetic identically on
			// both sides, so plain equality is enough except for NaN.
			a, b := c.Centroids[i], c2.Centroids[i]
			if a != b && (a == a || b == b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperListing1Body runs the train_rnforest body (paper Listing 1)
// against the sklearn shim, including pickle round-trip of the model.
func TestPaperListing1Body(t *testing.T) {
	src := `
import pickle
from sklearn.ensemble import RandomForestClassifier

def train_rnforest(data, classes, n_estimators):
    clf = RandomForestClassifier(n_estimators)
    clf.fit(data, classes)
    return {"clf": pickle.dumps(clf), "estimators": n_estimators}

data = [1.0, 1.1, 0.9, 5.0, 5.2, 4.8]
classes = [0, 0, 0, 1, 1, 1]
out = train_rnforest(data, classes, 2)
blob = out["clf"]
clf2 = pickle.loads(blob)
pred = clf2.predict([1.05, 5.1])
`
	mod, err := Parse("listing1", src)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := env.Get("pred")
	if pred.Repr() != "[0, 1]" {
		t.Fatalf("predictions: %s", pred.Repr())
	}
	blob, _ := env.Get("blob")
	if _, ok := blob.(BytesVal); !ok {
		t.Fatalf("clf blob should be bytes, got %s", blob.TypeName())
	}
}

func TestSklearnKeywordArg(t *testing.T) {
	src := `
from sklearn.ensemble import RandomForestClassifier
clf = RandomForestClassifier(n_estimators=3)
n = clf.n_estimators
`
	mod, err := Parse("kw", src)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := env.Get("n")
	if n.(IntVal) != 3 {
		t.Fatalf("n = %v", n)
	}
}

// TestSklearnImportsFromABareInterpreter: sklearn is one of stdModule's own
// modules and the classifier one of the pickle codec's own objects, so an
// interpreter imports, fits, pickles and unpickles a model with nothing else
// linked into the program.
func TestSklearnImportsFromABareInterpreter(t *testing.T) {
	src := `
import pickle
from sklearn.ensemble import RandomForestClassifier
import sklearn.ensemble as e

clf = RandomForestClassifier(2)
clf.fit([1.0, 1.1, 0.9, 5.0, 5.2, 4.8], [0, 0, 0, 1, 1, 1])
n = e.RandomForestClassifier(n_estimators=3).n_estimators
blob = pickle.dumps(clf)
back = pickle.loads(blob)
pred = back.predict([1.05, 5.1])
again = pickle.dumps(back) == blob
`
	mod, err := Parse("bare", src)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewInterp().Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"n": "3", "pred": "[0, 1]", "again": "True"} {
		if v, _ := env.Get(name); v == nil || v.Repr() != want {
			t.Errorf("%s = %v, want %s", name, v, want)
		}
	}
}
