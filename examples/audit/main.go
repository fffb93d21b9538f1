// Audit: read-only transactions with start-time timestamps (the paper's
// Section 7 extension, after Weihl's multi-version work).
//
// Writers continuously restock and sell inventory: each transaction binds
// or unbinds SKUs in a Directory, tracks the active SKU set, and bumps a
// sales Counter.  Concurrently, auditors take consistent multi-object
// snapshots with read-only transactions: an auditor's reads all reflect
// one serialization point (its start timestamp), acquire no locks, and
// never block the writers.  The invariant checked by every audit — the
// Directory and the Set agree exactly — holds in every snapshot even
// though writers are mid-flight, and the full recorded history verifies
// under the generalized hybrid-atomicity rules.
//
//	go run ./examples/audit
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc"
)

const (
	writers = 4
	audits  = 25
	skus    = 16
)

func main() {
	rec := hybridcc.NewRecorder()
	// A writer that finds its SKU bound holds Bind(k)/Bound and then asks
	// Unbind(k), which conflicts with every other holder's Bind(k)/Bound:
	// three writers meeting on one key wait on each other in a cycle.  A
	// lock-wait timeout breaks it only for the writer that times out, and
	// its retry rejoins the cycle the others are still in; deadlock
	// detection fails the request that closes the cycle at once, and that
	// writer's retry runs once the survivor commits.
	sys := hybridcc.NewSystem(
		hybridcc.WithLockWait(500*time.Millisecond),
		hybridcc.WithDeadlockDetection(),
		hybridcc.WithRecorder(rec),
	)
	stock := hybridcc.Must(sys.NewDirectory("stock"))  // sku → quantity
	active := hybridcc.Must(sys.NewSet("active-skus")) // which SKUs are stocked
	sales := hybridcc.Must(sys.NewCounter("sales"))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xa0d17))
			for !stop.Load() {
				sku := rng.Int64N(skus)
				key := fmt.Sprintf("sku%02d", sku)
				err := sys.Atomically(func(tx *hybridcc.Tx) error {
					// Restock or sell: keep Directory and Set in lockstep
					// so auditors have an invariant to check.
					bound, err := stock.Bind(tx, key, 1+rng.Int64N(100))
					if err != nil {
						return err
					}
					if bound {
						if _, err := active.Insert(tx, sku); err != nil {
							return err
						}
						return nil
					}
					// Already stocked: sell it out.
					if _, err := stock.Unbind(tx, key); err != nil {
						return err
					}
					if _, err := active.Remove(tx, sku); err != nil {
						return err
					}
					return sales.Inc(tx, 1)
				})
				if err != nil {
					log.Fatalf("writer %d: %v", w, err)
				}
				// Pace the writers: the example models steady traffic
				// beside the auditors, not a contention benchmark.
				time.Sleep(time.Duration(50+rng.IntN(200)) * time.Microsecond)
			}
		}(w)
	}

	// Auditors: consistent snapshots while the writers churn.
	consistent := 0
	for i := 0; i < audits; i++ {
		err := sys.Snapshot(func(r *hybridcc.ReadTx) error {
			for sku := int64(0); sku < skus; sku++ {
				key := fmt.Sprintf("sku%02d", sku)
				_, bound, err := stock.LookupAt(r, key)
				if err != nil {
					return err
				}
				member, err := active.MemberAt(r, sku)
				if err != nil {
					return err
				}
				if bound != member {
					return fmt.Errorf("audit %d: sku%02d directory=%v set=%v — snapshot inconsistent",
						i, sku, bound, member)
				}
			}
			if _, err := sales.ReadAt(r); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		consistent++
		// Space the audits out so writer transactions actually land
		// between them; back-to-back snapshots can outrun the writers.
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if err := sys.Verify(); err != nil {
		log.Fatalf("history verification failed: %v", err)
	}
	stats := sys.Stats()
	fmt.Printf("%d/%d audits saw a consistent snapshot while %d writer transactions ran\n",
		consistent, audits, stats.Committed-int64(consistent))
	fmt.Printf("total sales: %d, stocked SKUs now: %d\n", sales.CommittedValue(), stock.CommittedSize())
	fmt.Println("recorded history verified under generalized hybrid atomicity")
}
