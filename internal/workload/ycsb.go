package workload

import (
	"context"
	"fmt"
	"math/rand"

	"crdbserverless/internal/randutil"
	"crdbserverless/internal/sql"
)

// YCSB implements the YCSB core workloads A-F over a single usertable, with
// the standard Zipfian request distribution. These are among the held-out
// workloads of the Fig 11 model-accuracy evaluation.
type YCSB struct {
	Records  int
	Workload byte // 'A'..'F'
	rng      *rand.Rand
	zipf     *randutil.Zipf
	inserted int
}

// NewYCSB returns a generator for the given core workload letter.
func NewYCSB(records int, letter byte, seed int64) *YCSB {
	if records <= 0 {
		records = 100
	}
	rng := randutil.NewRand(seed)
	return &YCSB{
		Records:  records,
		Workload: letter,
		rng:      rng,
		zipf:     randutil.NewZipf(randutil.Fork(rng), uint64(records), 0.99),
		inserted: records,
	}
}

// Setup creates and loads the usertable.
func (y *YCSB) Setup(ctx context.Context, db DB) error {
	if _, err := exec(ctx, db, "CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 STRING)"); err != nil {
		return err
	}
	for i := 0; i < y.Records; i++ {
		if _, err := exec(ctx, db, "INSERT INTO usertable VALUES ($1, $2)",
			sql.DInt(int64(i)), sql.DString(randString(y.rng, 64))); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one operation from the workload's mix.
func (y *YCSB) Run(ctx context.Context, db DB) error {
	key := int64(y.zipf.Next())
	switch y.Workload {
	case 'A': // 50/50 read/update
		if y.rng.Intn(2) == 0 {
			return y.read(ctx, db, key)
		}
		return y.update(ctx, db, key)
	case 'B': // 95/5 read/update
		if y.rng.Intn(100) < 95 {
			return y.read(ctx, db, key)
		}
		return y.update(ctx, db, key)
	case 'C': // read only
		return y.read(ctx, db, key)
	case 'D': // read latest / insert
		if y.rng.Intn(100) < 95 {
			return y.read(ctx, db, int64(y.inserted-1))
		}
		return y.insert(ctx, db)
	case 'E': // short scans / insert
		if y.rng.Intn(100) < 95 {
			return y.scan(ctx, db, key)
		}
		return y.insert(ctx, db)
	case 'F': // read-modify-write
		if err := y.read(ctx, db, key); err != nil {
			return err
		}
		return y.update(ctx, db, key)
	default:
		return fmt.Errorf("workload: unknown YCSB workload %q", y.Workload)
	}
}

func (y *YCSB) read(ctx context.Context, db DB, key int64) error {
	_, err := exec(ctx, db, "SELECT field0 FROM usertable WHERE ycsb_key = $1", sql.DInt(key))
	return err
}

func (y *YCSB) update(ctx context.Context, db DB, key int64) error {
	_, err := exec(ctx, db, "UPDATE usertable SET field0 = $1 WHERE ycsb_key = $2",
		sql.DString(randString(y.rng, 64)), sql.DInt(key))
	return err
}

func (y *YCSB) insert(ctx context.Context, db DB) error {
	y.inserted++
	_, err := exec(ctx, db, "INSERT INTO usertable VALUES ($1, $2)",
		sql.DInt(int64(y.inserted)), sql.DString(randString(y.rng, 64)))
	return err
}

func (y *YCSB) scan(ctx context.Context, db DB, key int64) error {
	_, err := exec(ctx, db,
		"SELECT ycsb_key, field0 FROM usertable WHERE ycsb_key >= $1 ORDER BY ycsb_key LIMIT 10",
		sql.DInt(key))
	return err
}

// KV is a minimal key-value workload with a configurable read fraction and
// value size — the "kv" workload used for calibration sweeps.
type KV struct {
	Keys         int
	ReadFraction float64
	ValueSize    int
	rng          *rand.Rand
}

// NewKV returns a KV generator.
func NewKV(keys int, readFraction float64, valueSize int, seed int64) *KV {
	if keys <= 0 {
		keys = 100
	}
	if valueSize <= 0 {
		valueSize = 32
	}
	return &KV{Keys: keys, ReadFraction: readFraction, ValueSize: valueSize, rng: randutil.NewRand(seed)}
}

// Setup creates the kv table.
func (k *KV) Setup(ctx context.Context, db DB) error {
	if _, err := exec(ctx, db, "CREATE TABLE kv (k INT PRIMARY KEY, v STRING)"); err != nil {
		return err
	}
	return nil
}

// Run executes one read or write.
func (k *KV) Run(ctx context.Context, db DB) error {
	key := int64(k.rng.Intn(k.Keys))
	if k.rng.Float64() < k.ReadFraction {
		_, err := exec(ctx, db, "SELECT v FROM kv WHERE k = $1", sql.DInt(key))
		return err
	}
	// Upsert-ish: delete + insert keeps the statement mix simple.
	if _, err := exec(ctx, db, "DELETE FROM kv WHERE k = $1", sql.DInt(key)); err != nil {
		return err
	}
	_, err := exec(ctx, db, "INSERT INTO kv VALUES ($1, $2)",
		sql.DInt(key), sql.DString(randString(k.rng, k.ValueSize)))
	return err
}

// Import bulk-loads rows into a fresh table — the "data import" workload of
// the Fig 11 evaluation.
type Import struct {
	Rows      int
	BatchSize int
	rng       *rand.Rand
}

// NewImport returns an import generator.
func NewImport(rows int, seed int64) *Import {
	if rows <= 0 {
		rows = 500
	}
	return &Import{Rows: rows, BatchSize: 10, rng: randutil.NewRand(seed)}
}

// Run creates the table and loads all rows in multi-row inserts.
func (im *Import) Run(ctx context.Context, db DB) error {
	if _, err := exec(ctx, db, "CREATE TABLE imported (id INT PRIMARY KEY, payload STRING)"); err != nil {
		return err
	}
	for start := 0; start < im.Rows; start += im.BatchSize {
		stmt := "INSERT INTO imported VALUES "
		n := im.BatchSize
		if start+n > im.Rows {
			n = im.Rows - start
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, '%s')", start+i, randString(im.rng, 100))
		}
		if _, err := exec(ctx, db, stmt); err != nil {
			return err
		}
	}
	return nil
}
