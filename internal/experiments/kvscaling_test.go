package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// kvScalingTablePin is the SHA-256 of the rendered kvscaling table. The run
// is on a manual clock, so the table is the same on every run; a change that
// moves it changed the scaling cycle.
const kvScalingTablePin = "881aa663e5908482c28f8b9bdd885588ddb069565c007eb7b512775d73e23181"

// TestExtensionKVScalingShape: write pressure grows the KV fleet and moves
// replicas onto the added node, the idle phase drains it back to exactly the
// minimum of 3, no two fleet-size changes come within the cooldown, and the
// sentinel row survives the whole cycle. One run feeds every subtest.
func TestExtensionKVScalingShape(t *testing.T) {
	res, table, err := ExtensionKVScaling()
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(res.Series) == 0 {
		t.Fatal("no trace")
	}
	t.Run("AddsNodeUnderLoad", func(t *testing.T) {
		if res.MaxNodes <= kvMinNodes {
			t.Fatalf("peak %d nodes, want above %d", res.MaxNodes, kvMinNodes)
		}
		if res.AddedNodeReplicas == 0 {
			t.Fatal("no replicas moved onto an added node")
		}
	})
	t.Run("RemovesIdleNode", func(t *testing.T) {
		if res.EndNodes != kvMinNodes {
			t.Fatalf("end %d nodes, want %d", res.EndNodes, kvMinNodes)
		}
		for _, p := range res.Series {
			if p.Nodes < kvMinNodes {
				t.Fatalf("%d nodes at %v, below the minimum %d", p.Nodes, p.At, kvMinNodes)
			}
		}
	})
	t.Run("CooldownPreventsFlapping", func(t *testing.T) {
		nodes, lastChange := kvMinNodes, time.Duration(-1)
		for _, p := range res.Series {
			if p.Nodes == nodes {
				continue
			}
			if lastChange >= 0 && p.At-lastChange < kvCooldown {
				t.Fatalf("fleet changed at %v and again at %v, inside the %v cooldown", lastChange, p.At, kvCooldown)
			}
			nodes, lastChange = p.Nodes, p.At
		}
	})
	t.Run("DataSurvivesScaleCycle", func(t *testing.T) {
		if !res.DataOK {
			t.Fatal("sentinel key lost across the scale cycle")
		}
	})
	t.Run("TableReplays", func(t *testing.T) {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(table.String()))); got != kvScalingTablePin {
			t.Fatalf("kvscaling table digest %s, pinned %s:\n%s", got, kvScalingTablePin, table)
		}
	})
}
