package experiments

import (
	"context"
	"fmt"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvscaler"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/timeutil"
)

// KVScalingPoint is one sample of the KV fleet-size trace.
type KVScalingPoint struct {
	At          time.Duration
	Utilization float64
	Nodes       int
}

// KVScalingResult is the automatic KV scaling trace.
type KVScalingResult struct {
	Series   []KVScalingPoint
	MaxNodes int
	EndNodes int
	DataOK   bool
}

// ExtensionKVScaling exercises the paper's first future-work item (§8):
// automatic KV/storage node scaling. A write-heavy phase pushes fleet
// utilization over the high-water mark — nodes are added and replicas
// rebalanced onto them — then an idle phase drains the fleet back to its
// minimum, with a data-integrity check across the whole cycle.
func ExtensionKVScaling() (*KVScalingResult, *Table, error) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	mkNode := func(id kvserver.NodeID) *kvserver.Node {
		return kvserver.NewNode(kvserver.NodeConfig{
			ID:    id,
			VCPUs: 2,
			Clock: clock,
			Cost: kvserver.CostConfig{
				ReadBatchOverhead:  time.Microsecond,
				WriteBatchOverhead: 2 * time.Microsecond,
				WriteByteCost:      8 * time.Microsecond,
			},
		})
	}
	var nodes []*kvserver.Node
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, mkNode(kvserver.NodeID(i)))
	}
	cluster, err := kvserver.NewCluster(kvserver.ClusterConfig{Clock: clock}, nodes)
	if err != nil {
		return nil, nil, err
	}
	defer cluster.Close()
	for tid := keys.TenantID(2); tid < 12; tid++ {
		if err := cluster.SplitAt(keys.MakeTenantPrefix(tid)); err != nil {
			return nil, nil, err
		}
	}
	scaler, err := kvscaler.New(kvscaler.Config{
		Cluster:     cluster,
		Clock:       clock,
		Provisioner: mkNode,
	})
	if err != nil {
		return nil, nil, err
	}

	ds := kvserver.NewDistSender(cluster, kvserver.Identity{Tenant: 2})
	ctx := context.Background()
	sentinel := append(keys.MakeTenantPrefix(2), []byte("sentinel")...)
	if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Put, Key: sentinel, Value: []byte("v")},
	}}); err != nil {
		return nil, nil, err
	}

	res := &KVScalingResult{}
	start := clock.Now()
	step := func(heavy bool, ticks int) error {
		i := 0
		for t := 0; t < ticks; t++ {
			if heavy {
				for j := 0; j < 400; j++ {
					i++
					k := append(keys.MakeTenantPrefix(2), []byte(fmt.Sprintf("k%06d", i%512))...)
					if _, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
						{Method: kvpb.Put, Key: k, Value: make([]byte, 8<<10)},
					}}); err != nil {
						return err
					}
				}
			}
			clock.Advance(5 * time.Second)
			if _, err := scaler.Tick(); err != nil {
				return err
			}
			n := len(cluster.Nodes())
			if n > res.MaxNodes {
				res.MaxNodes = n
			}
			res.Series = append(res.Series, KVScalingPoint{
				At:          clock.Now().Sub(start),
				Utilization: scaler.Utilization(),
				Nodes:       n,
			})
		}
		return nil
	}
	if err := step(true, 16); err != nil { // sustained write pressure
		return nil, nil, err
	}
	if err := step(false, 30); err != nil { // idle drain
		return nil, nil, err
	}
	res.EndNodes = len(cluster.Nodes())

	// Data integrity across add/rebalance/drain/remove.
	ds2 := kvserver.NewDistSender(cluster, kvserver.Identity{Tenant: 2})
	resp, err := ds2.Send(ctx, &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: sentinel},
	}})
	res.DataOK = err == nil && resp.Responses[0].Exists

	table := &Table{
		Title:   "Extension (§8): automatic KV node scaling across a load cycle",
		Columns: []string{"t", "fleet util", "kv nodes"},
	}
	for i, p := range res.Series {
		if i%4 != 0 {
			continue
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0fs", p.At.Seconds()),
			fmt.Sprintf("%.0f%%", p.Utilization*100),
			fmt.Sprintf("%d", p.Nodes),
		})
	}
	table.Rows = append(table.Rows, []string{"summary",
		fmt.Sprintf("peak %d nodes", res.MaxNodes),
		fmt.Sprintf("end %d nodes, data ok=%v", res.EndNodes, res.DataOK)})
	return res, table, nil
}
