package randutil

import (
	"testing"
	"time"
)

func TestNewRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must yield same stream")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(1)
	c1 := Fork(r)
	c2 := Fork(r)
	if c1.Int63() == c2.Int63() && c1.Int63() == c2.Int63() && c1.Int63() == c2.Int63() {
		t.Fatal("forked streams should differ")
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(7)
	base := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := Jitter(r, base, 0.2)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered value %v outside ±20%% of %v", d, base)
		}
	}
}

func TestJitterZeroAndClamp(t *testing.T) {
	r := NewRand(7)
	if d := Jitter(r, 0, 0.5); d != 0 {
		t.Fatalf("Jitter(0) = %v, want 0", d)
	}
	if d := Jitter(r, -time.Second, 0.5); d != -time.Second {
		t.Fatalf("Jitter(-1s) = %v, want -1s", d)
	}
	// frac > 1 clamps to 1 — result stays in [0, 2x].
	for i := 0; i < 100; i++ {
		d := Jitter(r, time.Second, 5)
		if d < 0 || d > 2*time.Second {
			t.Fatalf("clamped jitter out of range: %v", d)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(3)
	median := 500 * time.Millisecond
	var below, above int
	for i := 0; i < 5000; i++ {
		if LogNormal(r, median, 0.5) < median {
			below++
		} else {
			above++
		}
	}
	// The median should split the samples roughly evenly.
	ratio := float64(below) / 5000
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("median split %f, want ~0.5", ratio)
	}
}

func TestLogNormalNonPositive(t *testing.T) {
	r := NewRand(3)
	if d := LogNormal(r, 0, 1); d != 0 {
		t.Fatalf("LogNormal(0) = %v", d)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRand(5)
	z := NewZipf(r, 1000, 0.99)
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Item 0 should be dramatically more popular than item 500.
	if counts[0] < 10*counts[500]+1 {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := NewRand(5)
	z := NewZipf(r, 0, 0.5) // n clamped to 1
	for i := 0; i < 100; i++ {
		if v := z.Next(); v != 0 {
			t.Fatalf("zipf over n=1 returned %d", v)
		}
	}
	// Out-of-range theta is clamped rather than panicking.
	NewZipf(r, 10, -1).Next()
	NewZipf(r, 10, 2).Next()
}

func TestWeightedChoice(t *testing.T) {
	r := NewRand(9)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[WeightedChoice(r, weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight ratio %f, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	r := NewRand(9)
	if got := WeightedChoice(r, []float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights returned %d", got)
	}
}

func TestRandBytes(t *testing.T) {
	r := NewRand(13)
	b := RandBytes(r, 64)
	if len(b) != 64 {
		t.Fatalf("len = %d", len(b))
	}
	for _, c := range b {
		if c < '0' || c > 'z' {
			t.Fatalf("non-printable byte %q", c)
		}
	}
}
