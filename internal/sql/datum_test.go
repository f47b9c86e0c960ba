package sql

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crdbserverless/internal/randutil"
)

// Compare is a total order, so a statement means one thing: whichever side
// of a comparison its constant is on, whatever the kinds of the two sides,
// and whether the KV node or the SQL node evaluates it. Each case runs with
// push-down and without.
func TestCompareOrdersStatements(t *testing.T) {
	_, pushed := newTestDB(t)
	_, rows := newRowPathDB(t)
	nan := DFloat(math.NaN())
	for _, s := range []*Session{pushed, rows} {
		mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, i INT, f FLOAT, s STRING)")
		mustExec(t, s, "CREATE TABLE u (k INT PRIMARY KEY, x FLOAT)")
		// The first row's f is a NaN, and row 3's a NaN of another bit
		// pattern; rows 5 and 6 hold -0 and 0.
		mustExec(t, s, "INSERT INTO t VALUES (1, 9007199254740993, $1, 'g1'), (2, 9007199254740992, 1.0, 'g2'), "+
			"(3, 1, $2, NULL), (4, 2, 2.5, '5'), (5, NULL, $3, 'a'), (6, 3, 0.0, 'b'), (7, 4, NULL, 'c')",
			nan, DFloat(-math.NaN()), DFloat(math.Copysign(0, -1)))
		mustExec(t, s, "INSERT INTO u VALUES (1, 1.0), (2, 2.5), (3, 3.0)")
	}
	for _, tc := range []struct {
		query string
		args  []Datum
		want  []string
	}{
		// A number equals no string, and sorts before every one.
		{"SELECT COUNT(*) FROM t WHERE 5 = s", nil, []string{"0"}},
		{"SELECT COUNT(*) FROM t WHERE s = 5", nil, []string{"0"}},
		{"SELECT COUNT(*) FROM t WHERE s > 5", nil, []string{"6"}},
		{"SELECT COUNT(*) FROM t WHERE 5 < s", nil, []string{"6"}},
		// A NaN equals no number but a NaN, and sorts below every number.
		{"SELECT k FROM t WHERE f = 1.0 ORDER BY k", nil, []string{"2"}},
		{"SELECT k FROM t WHERE f = $1 ORDER BY k", []Datum{nan}, []string{"1", "3"}},
		{"SELECT k FROM t WHERE f < -1000 ORDER BY k", nil, []string{"1", "3"}},
		{"SELECT MIN(f), MAX(f) FROM t", nil, []string{"NaN,2.5"}},
		// Equal values group together: every NaN, and -0 with 0.
		{"SELECT f, COUNT(*) FROM t GROUP BY f ORDER BY f", nil, []string{"NULL,1", "NaN,2", "-0,2", "1,1", "2.5,1"}},
		// INT and FLOAT compare exactly, beyond a float64's 53 bits too.
		{"SELECT k FROM t WHERE i = 9007199254740992 ORDER BY k", nil, []string{"2"}},
		{"SELECT k FROM t WHERE i > 9007199254740992.0 ORDER BY k", nil, []string{"1"}},
		// A hash join matches the INT and the FLOAT that are equal.
		{"SELECT COUNT(*) FROM t JOIN u ON i = x", nil, []string{"2"}},
	} {
		for _, s := range []*Session{pushed, rows} {
			if got := rowStrings(mustExec(t, s, tc.query, tc.args...)); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s (push-down %v) = %v, want %v", tc.query, s == pushed, got, tc.want)
			}
		}
	}
}

// edgeDatum returns a datum of any kind, NULL included, drawn to hit the
// edges of Compare: ±0, ±Inf, NaNs of two bit patterns, integral FLOATs,
// and INTs beyond a float64's 53 bits of mantissa.
func edgeDatum(rng *rand.Rand) Datum {
	switch rng.Intn(6) {
	case 0:
		return DNull
	case 1:
		return DInt([]int64{0, 1, -1, 2, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}[rng.Intn(8)])
	case 2:
		return DFloat([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
			1, 1.5, -0.5, 2, 1 << 53, 1 << 63, -1 << 63}[rng.Intn(13)])
	case 3:
		return DString([]string{"", "a", "5", "b"}[rng.Intn(4)])
	case 4:
		return DBool(rng.Intn(2) == 0)
	default:
		return DInt(int64(rng.Intn(5) - 2))
	}
}

// Compare is a total order over every datum (antisymmetric and transitive),
// and two datums share a group key exactly when Compare calls them equal.
// The datums are edge values and random ones of any bit pattern.
func TestCompareIsATotalOrder(t *testing.T) {
	rng := randutil.NewRand(7)
	pool := make([]Datum, 60)
	for i := range pool {
		if i%3 == 0 {
			pool[i] = randomDatum(rng)
		} else {
			pool[i] = edgeDatum(rng)
		}
	}
	sign := func(c int) int { return max(-1, min(1, c)) }
	for _, a := range pool {
		if c := a.Compare(a); c != 0 {
			t.Fatalf("%+v compares %d with itself", a, c)
		}
		for _, b := range pool {
			ab := a.Compare(b)
			if ba := b.Compare(a); sign(ab) != -sign(ba) {
				t.Fatalf("%+v vs %+v: %d, reversed %d", a, b, ab, ba)
			}
			if sameKey := string(appendGroupKey(nil, a)) == string(appendGroupKey(nil, b)); sameKey != (ab == 0) {
				t.Fatalf("%+v vs %+v: compare %d, same group key %v", a, b, ab, sameKey)
			}
			for _, c := range pool {
				if ab <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Fatalf("%+v <= %+v <= %+v, but the first is above the last", a, b, c)
				}
			}
		}
	}
}
