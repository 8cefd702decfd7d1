package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		name        string
		xs          []float64
		med, q1, q3 float64
	}{
		{"one sample", []float64{7}, 7, 7, 7},
		{"even count interpolates", []float64{4, 1, 3, 2}, 2.5, 1.75, 3.25},
		{"ties", []float64{5, 5, 5, 1, 5}, 5, 5, 5},
	} {
		if got := Median(c.xs); got != c.med {
			t.Errorf("%s: median %v, want %v", c.name, got, c.med)
		}
		q1, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%s: quartiles %v %v, want %v %v", c.name, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of no samples is a number")
	}
}

func TestMAD(t *testing.T) {
	if got := MAD([]float64{1, 1, 2, 2, 4, 6, 9}); got != 1 {
		t.Errorf("MAD %v, want 1", got)
	}
	if got := MAD([]float64{3}); got != 0 {
		t.Errorf("MAD of one sample %v, want 0", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := Percentile(xs, 99); ok {
		t.Error("p99 of 999 samples reported; fewer than ten lie beyond it")
	}
	xs = append(xs, 999)
	v, ok := Percentile(xs, 99)
	if !ok || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 989.01, true", v, ok)
	}
	if _, ok := Percentile(xs[:100], 90); !ok {
		t.Error("p90 of 100 samples refused; ten lie beyond it")
	}
	if _, ok := Percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples reported")
	}
	if _, ok := Percentile(xs[:19], 50); ok {
		t.Error("p50 of 19 samples reported")
	}
	if _, ok := Percentile([]float64{1}, 50); ok {
		t.Error("p50 of one sample reported")
	}
	if _, ok := Percentile(nil, 90); ok {
		t.Error("percentile of no samples reported")
	}
}
