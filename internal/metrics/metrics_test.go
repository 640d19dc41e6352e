package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("zero Welford not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
	if !almostEqual(w.Sum(), 40, 1e-9) {
		t.Errorf("Sum = %v", w.Sum())
	}
	w.Reset()
	if w.N() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r, err := Pearson(x, yPos); err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson pos = %v, %v", r, err)
	}
	if r, err := Pearson(x, yNeg); err != nil || !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson neg = %v, %v", r, err)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 1, 4, 3, 7, 5}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed: covariance 3.0, sx^2 = 3.5, sy^2 = 4.6667 → r ≈ 0.792.
	if !almostEqual(r, 0.7917946548886297, 1e-9) {
		t.Errorf("r = %v, want ~0.79179", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("constant series accepted")
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		x := make([]float64, 0, len(raw))
		y := make([]float64, 0, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i)
			}
			v = math.Mod(v, 100)
			x = append(x, v+float64(i)*0.001)
			y = append(y, math.Mod(v*3, 50)+float64(i%7))
		}
		r, err := Pearson(x, y)
		if err != nil {
			return true
		}
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEuclideanPaperValues(t *testing.T) {
	// Sanity: identical vectors are distance 0; a single 0.018 delta gives
	// the paper's winning metric value.
	o := []float64{0.2, 0.3, 0.4}
	if d, err := Euclidean(o, o); err != nil || d != 0 {
		t.Errorf("self distance = %v, %v", d, err)
	}
	p := []float64{0.2 + 0.018, 0.3, 0.4}
	d, err := Euclidean(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0.018, 1e-12) {
		t.Errorf("d = %v", d)
	}
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Error("Min/Max wrong")
	}
	if ArgMin(xs) != 1 {
		t.Errorf("ArgMin = %d", ArgMin(xs))
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean not 0")
	}
}

func TestMinMaxPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Min":    func() { Min(nil) },
		"Max":    func() { Max(nil) },
		"ArgMin": func() { ArgMin(nil) },
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]float64{3, 3, 3, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("equal shares: %v, want 1", got)
	}
	if got := Jain([]float64{10, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("one hog of four: %v, want 0.25", got)
	}
	// Known value: (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
	if got := Jain([]float64{1, 2, 3}); !almostEqual(got, 36.0/42.0, 1e-12) {
		t.Errorf("1,2,3: %v, want %v", got, 36.0/42.0)
	}
	if got := Jain(nil); got != 1 {
		t.Errorf("empty: %v, want 1", got)
	}
	if got := Jain([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero: %v, want 1", got)
	}
}
