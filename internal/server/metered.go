// Package server assembles processes: the per-tenant SQL node (§4.1) that
// serves the wire protocol, meters tenant resource consumption, enforces the
// tenant's eCPU quota via the distributed token bucket, and supports the
// pre-warmed cold-start flow (§4.3.1) and session migration (§4.2.4).
package server

import (
	"context"
	"sync"

	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/txn"
)

// MeteredSender wraps a KV sender, accumulating the batch features the
// estimated-CPU model prices (§5.2.1). Every KV round trip a SQL node makes
// flows through one of these.
type MeteredSender struct {
	inner txn.Sender

	mu       sync.Mutex
	features tenantcost.BatchFeatures
}

// NewMeteredSender wraps inner.
func NewMeteredSender(inner txn.Sender) *MeteredSender {
	return &MeteredSender{inner: inner}
}

// Send implements txn.Sender.
func (m *MeteredSender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	resp, err := m.inner.Send(ctx, ba)
	if err != nil {
		return nil, err
	}
	f := tenantcost.FeaturesFromBatch(ba, resp)
	m.mu.Lock()
	m.features.Add(f)
	m.mu.Unlock()
	return resp, nil
}

// Features returns the accumulated batch features.
func (m *MeteredSender) Features() tenantcost.BatchFeatures {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.features
}
