// Command hybrid-shardd serves one durable shard of a hybridcc cluster
// over TCP: a core System with a write-ahead commit log and the netproto
// wire protocol in front of it.  A cluster is N of these processes plus
// any number of clients using hybridcc.Dial, which routes object names to
// shards with the same partitioner the in-process cluster uses.
//
//	hybrid-shardd -addr 127.0.0.1:7101 -shard 1 -shards 4 -dir /var/lib/hybrid/shard1
//
// The shard's timestamp discipline matches the in-process cluster: shard
// i of an N-shard cluster mints fast-path commit timestamps from the
// logical clock congruent to i modulo N+1, leaving the class N to client
// coordinators, so timestamps stay globally unique without coordination.
//
// Restarting after a crash recovers from the WAL and the registration
// catalog.  If the crash left prepared-but-undecided 2PC branches, the
// process starts in the recovering state and serves only decision
// traffic (netproto clients resolve the branches from their decision
// ledgers on connect — commit if a decision was logged, presumed abort
// otherwise) until every branch is resolved; -stats exposes the state.
//
// SIGTERM and SIGINT drain gracefully: the listener closes, in-flight
// connections get -grace to finish, and the WAL closes cleanly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hybridcc/internal/core"
	"hybridcc/internal/netproto"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7100", "TCP listen address for the shard protocol")
		shard    = flag.Int("shard", 0, "this shard's index (0-based)")
		shards   = flag.Int("shards", 1, "total shard count of the cluster")
		dir      = flag.String("dir", "", "durable state directory (WAL + registration catalog); required")
		statsOn  = flag.String("stats", "", "HTTP listen address for /stats and /health (empty: disabled)")
		fsync    = flag.Bool("fsync", true, "fsync the commit log on every commit")
		segment  = flag.Int64("segment", 0, "WAL segment rotation threshold in bytes (0: default)")
		lockWait = flag.Duration("lockwait", 0, "per-call lock wait bound (0: default)")
		grace    = flag.Duration("grace", 5*time.Second, "shutdown drain period")
		ckptB    = flag.Int64("checkpoint-bytes", 0, "checkpoint when this many bytes were logged since the last one (0: off)")
		ckptI    = flag.Duration("checkpoint-interval", 0, "checkpoint when this long has passed since the last one (0: off)")
		// -ckpt-crash kills the process (exit 137, as kill -9 would) the
		// moment a checkpoint attempt reaches the named stage — the chaos
		// harness's lever for exercising every crash window of the publish
		// protocol.  Stages: create, write, sync (crash before the rename),
		// rename (crash before publishing), retire (crash after publishing,
		// before retiring old checkpoints), truncate (crash before segment
		// unlink).
		ckptCrash = flag.String("ckpt-crash", "", "kill -9 the process when a checkpoint reaches this stage (testing only)")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("shardd[%d]: ", *shard))
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	if *dir == "" {
		log.Fatal("-dir is required")
	}
	if *shard < 0 || *shards < 1 || *shard >= *shards {
		log.Fatalf("bad shard coordinates: -shard %d -shards %d", *shard, *shards)
	}
	if stage := *ckptCrash; stage != "" {
		wal.CheckpointFailpoint = func(st string) error {
			if st == stage {
				log.Printf("ckpt-crash: dying at checkpoint stage %q", st)
				os.Exit(137)
			}
			return nil
		}
	}

	sys, err := core.OpenSystem(core.Options{
		LockWait:           *lockWait,
		Clock:              tstamp.NewNodeClock(*shard, *shards+1),
		ExternalTimestamps: true,
		DeadlockDetection:  true,
		Durability: &core.Durability{
			Dir:                filepath.Join(*dir, "wal"),
			Sync:               *fsync,
			SegmentSize:        *segment,
			CheckpointBytes:    *ckptB,
			CheckpointInterval: *ckptI,
		},
	})
	if err != nil {
		log.Fatalf("open system: %v", err)
	}

	// Re-register every catalogued object BEFORE recovery finishes: the
	// WAL records operations by object name, and replay needs the objects
	// back under those names.  Each registration batch (and each scheme
	// switch) was fsynced to the catalog ahead of its acknowledgement, so
	// the catalog covers every name the WAL can mention, each under its
	// last scheme.
	catalog, entries, err := netproto.OpenCatalog(*dir)
	if err != nil {
		log.Fatalf("open catalog: %v", err)
	}
	for _, e := range entries {
		if _, err := netproto.RegisterObject(sys, e.Name, e.TypeName, e.Scheme); err != nil {
			log.Fatalf("re-register %s (%s/%s): %v", e.Name, e.TypeName, e.Scheme, err)
		}
	}

	srv, err := netproto.NewServer(sys, *shard, *shards, netproto.ServerOptions{Catalog: catalog})
	if err != nil {
		log.Fatalf("recovery: %v", err)
	}
	if srv.Recovering() {
		log.Printf("recovered with undecided prepared branches; serving decision traffic only until resolved")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("shard %d/%d serving on %s (dir %s, %d catalogued objects)", *shard, *shards, ln.Addr(), *dir, len(entries))

	var statsSrv *http.Server
	if *statsOn != "" {
		statsSrv = startStats(*statsOn, srv, *shard, *shards)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("%s: draining (grace %s)", s, *grace)
	case err := <-done:
		if err != nil {
			log.Printf("serve: %v", err)
		}
	}

	srv.Shutdown(*grace)
	if statsSrv != nil {
		_ = statsSrv.Close()
	}
	if err := sys.Close(); err != nil {
		log.Printf("close system: %v", err)
	}
	if err := catalog.Close(); err != nil {
		log.Printf("close catalog: %v", err)
	}
	log.Printf("stopped")
}

// statsPayload is the /stats response schema.
type statsPayload struct {
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	State  string `json:"state"`
	// Recovering mirrors State == "recovering" as a typed flag, and
	// PendingBranches counts the prepared-but-undecided 2PC branches still
	// awaiting their coordinators' decisions; harnesses poll these to know
	// when a restarted shard has fully settled.
	Recovering      bool `json:"recovering"`
	PendingBranches int  `json:"pending_branches"`
	// LiveBranches counts the shard's live branches, update and read, by
	// state and ages the oldest that voted yes and still awaits or applies
	// its decision; Branches lists them all.  A prepared branch older than
	// the coordinators' redelivery backoff has lost its decision; an old
	// reading branch is a snapshot pin holding the forget horizon.
	LiveBranches liveBranches          `json:"live_branches"`
	Branches     []netproto.BranchInfo `json:"branches"`
	Stats        core.StatsSnapshot    `json:"stats"`
	Checkpoint   core.CheckpointStats  `json:"checkpoint"`
	Objects      []objectPayload       `json:"objects"`
}

type liveBranches struct {
	ByState          map[string]int `json:"by_state"`
	OldestPreparedMs float64        `json:"oldest_prepared_ms"`
}

type objectPayload struct {
	Name   string                   `json:"name"`
	Scheme string                   `json:"scheme"`
	Stats  core.ObjectStatsSnapshot `json:"stats"`
}

// startStats serves /stats (JSON counters, per-object breakdown) and
// /health (200 serving, 503 recovering) on its own listener, so probing a
// wedged shard never competes with the transaction protocol.
func startStats(addr string, srv *netproto.Server, shard, shards int) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		state := "serving"
		if srv.Recovering() {
			state = "recovering"
		}
		p := statsPayload{
			Shard:        shard,
			Shards:       shards,
			State:        state,
			Recovering:   srv.Recovering(),
			LiveBranches: liveBranches{ByState: map[string]int{}},
			Branches:     srv.Branches(),
			Stats:        srv.System().Stats(),
			Checkpoint:   srv.System().CheckpointStats(),
		}
		for _, b := range p.Branches {
			p.LiveBranches.ByState[b.State]++
			switch b.State {
			case "recovered":
				p.PendingBranches++
			case "prepared", "deciding", "failed":
				p.LiveBranches.OldestPreparedMs = max(p.LiveBranches.OldestPreparedMs, b.AgeMs)
			}
		}
		for _, o := range srv.System().Objects() {
			p.Objects = append(p.Objects, objectPayload{
				Name:   string(o.Name()),
				Scheme: o.Scheme(),
				Stats:  o.Stats(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p)
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		if srv.Recovering() {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "serving")
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := srv.System().Checkpoint(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintln(w, "checkpointed")
	})
	s := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := s.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("stats listener: %v", err)
		}
	}()
	return s
}
