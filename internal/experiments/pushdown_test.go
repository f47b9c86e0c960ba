package experiments

import "testing"

func TestPushdownAblationShape(t *testing.T) {
	res, table, err := AblationFilterPushdown(600, 4)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil {
		t.Fatal("no table")
	}
	t.Logf("no-push %.2fx, push %.2fx; Q1 no-push %.2fx, push %.2fx", res.PenaltyNoPushdown, res.PenaltyWithPushdown,
		res.Q1PenaltyNoPushdown, res.Q1PenaltyWithPushdown)
	if res.PenaltyWithPushdown >= res.PenaltyNoPushdown {
		t.Fatalf("pushdown did not reduce the penalty: %.2fx vs %.2fx",
			res.PenaltyWithPushdown, res.PenaltyNoPushdown)
	}
	if res.Q1PenaltyWithPushdown >= res.Q1PenaltyNoPushdown {
		t.Fatalf("aggregation pushdown did not reduce Q1's penalty: %.2fx vs %.2fx",
			res.Q1PenaltyWithPushdown, res.Q1PenaltyNoPushdown)
	}
}
