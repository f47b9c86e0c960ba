package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"crdbserverless"
	"crdbserverless/internal/metric"
)

// snapshot reads every public count the harness reports on, from outside the
// program: the deployment and region metric registries (labeled families
// summed over their labels), each KV node's engine metrics and CPU clock,
// and the Go runtime. Per-store engine figures are the mean over stores,
// since every store holds a replica of every range.
func snapshot(srv *crdbserverless.Serverless) counters {
	c := counters{}
	readRegistry := func(reg *metric.Registry) {
		reg.Each(func(name string, m any) {
			switch v := m.(type) {
			case *metric.Counter:
				c[name] += float64(v.Value())
			case *metric.CounterVec:
				v.Each(func(_ []string, child *metric.Counter) { c[name] += float64(child.Value()) })
			}
		})
	}
	readRegistry(srv.Metrics())
	readRegistry(srv.RegionMetrics(region))

	nodes := srv.Cluster().Nodes()
	stores := float64(len(nodes))
	for _, n := range nodes {
		c["kv.batches"] += float64(n.BatchCount())
		c["kv.cpu_busy_ns"] += float64(n.CPUBusy())
		m := n.Engine().Metrics()
		c["store.flush_bytes"] += float64(m.FlushedBytes) / stores
		c["store.compact_bytes"] += float64(m.CompactedBytes) / stores
		c["store.wal_bytes"] += float64(m.WALBytes) / stores
		c["store.flushes"] += float64(m.FlushCount) / stores
		c["store.compactions"] += float64(m.CompactionCount) / stores
	}
	c["kv.ranges"] = float64(len(srv.Cluster().Descriptors()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["runtime.mallocs"] = float64(ms.Mallocs)
	c["runtime.alloc_bytes"] = float64(ms.TotalAlloc)
	c["runtime.gc_cycles"] = float64(ms.NumGC)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c["runtime.gc_cpu_s"] = gc[0].Value.Float64()
	}
	c["process.cpu_s"] = processCPU().Seconds()
	return c
}

// storeState is the engines' current shape (not a count, so not a delta):
// mean bytes resident per store and mean sorted runs a point read may consult.
func storeState(srv *crdbserverless.Serverless) (bytes, readAmp float64) {
	nodes := srv.Cluster().Nodes()
	for _, n := range nodes {
		m := n.Engine().Metrics()
		for _, b := range m.LevelBytes {
			bytes += float64(b)
		}
		bytes += float64(m.MemTableBytes + m.VlogLiveBytes + m.VlogDeadBytes)
		readAmp += float64(m.ReadAmplification)
	}
	return bytes / float64(len(nodes)), readAmp / float64(len(nodes))
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is HeapAlloc after two collections: the second one frees what the
// first one's finalizers and sweep released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
