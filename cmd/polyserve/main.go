// Command polyserve runs the network-facing transactional key-value
// server: a TCP server whose request classes map onto the four
// transaction semantics of the polymorphic TM (GET→snapshot,
// SCAN→elastic, SET/CAS/DEL/TXN→def, FLUSH→irrevocable), each
// overridable per request by the semantics byte in the frame header —
// the paper's start(p) exposed on the wire.
//
// Usage:
//
//	polyserve -addr :7535 -shards 0 -max-conns 1024
//	polyserve -addr :7535 -wal-dir /var/lib/polyserve -fsync batch -checkpoint-every 1m
//	polyserve -addr :7535 -wal-dir /var/lib/polyserve -repl-sync
//	polyserve -addr :7536 -follow primary:7535
//
// The keyspace is hash-partitioned across -store-shards shards (0
// derives one per core, capped at 16), each with its own engine, map,
// and — when durable — write-ahead log. A request finds its shards
// once: a single-key request routes to one, MGET and SCAN run one
// transaction on each they touch and merge, and a TXN or FLUSH commits
// its participants as one unit — one transaction under the request's
// semantics when there is one, a 2PC protocol riding the per-shard
// irrevocable tokens when there are several. The flag only sizes a
// store that starts empty: a durable directory's MANIFEST pins the
// routing table its logs were written under, and a follower takes its
// primary's.
//
// -quiet silences every diagnostic the server would log: connections',
// recovery's, checkpoints', reshards' and the TTL reaper's. Startup and
// shutdown lines still print.
//
// With -wal-dir the server is durable: it recovers each shard's
// newest valid checkpoint plus its write-ahead-log tail on startup
// (truncating a torn trailing record, resolving in-doubt cross-shard
// prepares against the coordinator shard's decision set), logs every
// mutation through a group-commit batcher before acknowledging it
// (-fsync picks the policy: always / batch / off), and checkpoints
// the keyspace in the background every -checkpoint-every, truncating
// the logs. Checkpoints are incremental: after a full base, each pass
// writes only the keys dirtied since the last one (a delta chained to
// the base), compacting back to a full base once the chain reaches 8
// deltas or half the base's bytes — so steady-state checkpoint I/O
// tracks churn, not keyspace size.
//
// With -repl a durable server streams its per-shard WAL to followers
// over SUBSCRIBE-WAL connections (-repl-sync additionally gates each
// durable write ack on a follower ack). With -follow the server runs
// as a follower instead: it redials the primary until one answers,
// adopts the primary's routing table, catches up from a snapshot,
// applies the shipped log in commit order, serves
// GET/MGET/SCAN locally, and rejects writes with a typed redirect
// carrying the primary's address. SIGUSR1 promotes a follower to
// primary: pending cross-shard prepares resolve against the shipped
// decision sets and the store starts taking writes.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting, lets in-flight requests complete, and after -drain cancels
// the in-flight transactions through the context plumbing (they abort
// cleanly, nothing half-commits) before force-closing stragglers. A
// second signal during the drain skips straight to that cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"polytm/internal/server"
	"polytm/internal/server/client"
	"polytm/internal/wal"
)

func main() {
	addr := flag.String("addr", ":7535", "listen address")
	shards := flag.Int("shards", 0, "engine shard count (0 = GOMAXPROCS default)")
	storeShards := flag.Int("store-shards", 0, "keyspace shard count of a store that starts empty (0 = derive from GOMAXPROCS, derived default capped at 16; explicit values are honored as given; a durable directory's MANIFEST or a primary's topology wins)")
	maxConns := flag.Int("max-conns", 1024, "max concurrently served connections")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	quiet := flag.Bool("quiet", false, "suppress diagnostics: connections', recovery's, checkpoints', reshards' and the TTL reaper's")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory (empty = no durability)")
	fsync := flag.String("fsync", "batch", "wal fsync policy: always, batch, off")
	ckptEvery := flag.Duration("checkpoint-every", time.Minute, "background checkpoint cadence (<0 disables)")
	replicate := flag.Bool("repl", false, "serve replication feeds to followers (requires -wal-dir)")
	replSync := flag.Bool("repl-sync", false, "gate durable-write acks on a follower ack (implies -repl)")
	follow := flag.String("follow", "", "run as a follower of this primary address (serves reads, rejects writes; SIGUSR1 promotes)")
	ttlReapEvery := flag.Duration("ttl-reap-every", 0, "background TTL reaper cadence (0 = 250ms default, <0 disables; lazy expiry still hides expired keys)")
	watchBuffer := flag.Int("watch-buffer", 0, "per-session watch event buffer; overflow cuts the session with EVENT-LOST (0 = 1024 default)")
	splitShard := flag.Int("split-shard", -1, "admin: SPLIT the shard with this stable id on the server at -addr, print the new routing epoch, and exit")
	mergeShards := flag.String("merge-shards", "", "admin: MERGE buddy shards \"a,b\" (stable ids, either order; the lower-residue one survives) on the server at -addr, print the new routing epoch, and exit")
	flag.Parse()

	// Admin-client modes: the binary doubles as the resharding CLI so an
	// operator needs no second tool to drive a live SPLIT/MERGE.
	if *splitShard >= 0 || *mergeShards != "" {
		os.Exit(runReshardAdmin(*addr, *splitShard, *mergeShards))
	}

	// Resolve the keyspace shard count of a fresh store: the flag, else
	// one shard per core (capped — shards beyond the parallelism on the
	// box only cost fan-out).
	nStore := *storeShards
	if nStore <= 0 {
		nStore = min(runtime.GOMAXPROCS(0), 16)
	} else if nStore > 16 {
		// Explicit counts are honored as given — the 16 cap only tames
		// the derived default on very wide boxes. Past it, fan-out ops
		// (MGET/SCAN/FLUSH/2PC) touch every shard, so warn.
		log.Printf("polyserve: -store-shards %d exceeds the derived-default cap of 16 — honoring it; expect wider fan-outs",
			nStore)
	}

	cfg := server.Config{
		Shards:       *shards,
		StoreShards:  nStore,
		MaxConns:     *maxConns,
		TTLReapEvery: *ttlReapEvery,
		WatchBuffer:  *watchBuffer,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv := server.New(cfg)

	if *walDir != "" {
		mode, err := wal.ParseMode(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polyserve: %v\n", err)
			os.Exit(2)
		}
		res, err := srv.Store().EnableDurability(server.Durability{
			Dir:             *walDir,
			Fsync:           mode,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "polyserve: durability: %v\n", err)
			os.Exit(1)
		}
		log.Printf("polyserve: durable on %s (fsync=%s, checkpoint-every=%v, store-shards=%d) — recovered: %s",
			*walDir, mode, *ckptEvery, srv.Store().NumShards(), res)
	}

	switch {
	case *follow != "":
		if err := srv.EnableReplication(server.ReplConfig{Follow: *follow}); err != nil {
			fmt.Fprintf(os.Stderr, "polyserve: replication: %v\n", err)
			os.Exit(1)
		}
		log.Printf("polyserve: follower of %s (reads served locally; writes redirect; SIGUSR1 promotes)", *follow)
	case *replicate || *replSync:
		if err := srv.EnableReplication(server.ReplConfig{SyncAck: *replSync}); err != nil {
			fmt.Fprintf(os.Stderr, "polyserve: replication: %v\n", err)
			os.Exit(1)
		}
		log.Printf("polyserve: replication primary (sync-ack=%v)", *replSync)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polyserve: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	log.Printf("polyserve: listening on %s (store-shards=%d, engine-shards=%d, max-conns=%d)",
		ln.Addr(), srv.Store().NumShards(), srv.TM().Engine().Shards(), *maxConns)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// SIGUSR1 promotes a follower: the link stops, pending cross-shard
	// prepares resolve against the shipped decision sets, and the store
	// starts taking writes (durable stores also start serving feeds, so
	// the rest of the fleet can re-follow the new primary).
	if *follow != "" {
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				res, err := srv.Promote()
				if err != nil {
					log.Printf("polyserve: promote: %v", err)
					continue
				}
				log.Printf("polyserve: promoted to primary (epoch>=%d, prepares committed=%d rolled-back=%d)",
					res.MaxEpoch, res.Committed, res.RolledBack)
			}
		}()
	}

	// First SIGINT/SIGTERM starts the graceful drain; the drain context
	// expires either after -drain or on a second signal, at which point
	// Shutdown cancels the in-flight transactions through the context
	// plumbing and force-closes what remains. A third signal falls back
	// to the runtime's default handling (immediate exit).
	runCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-runCtx.Done():
		stop() // re-arm signals: the next one cuts the drain short
		log.Printf("polyserve: signal — draining (timeout %v; signal again to cancel in-flight transactions)", *drain)
		sdCtx, cancelSd := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer cancelSd()
		sdCtx, cancelTimeout := context.WithTimeout(sdCtx, *drain)
		defer cancelTimeout()
		forced := false
		if err := srv.Shutdown(sdCtx); err != nil {
			log.Printf("polyserve: %v", err)
			forced = true
		}
		<-done
		// The drain is over: flush and close the write-ahead log so the
		// final records are durable before the process exits.
		if err := srv.Store().CloseDurability(); err != nil {
			log.Printf("polyserve: wal close: %v", err)
			forced = true
		}
		stats := srv.Stats()
		log.Printf("polyserve: bye — %s", stats.String())
		log.Printf("polyserve: per-semantics — %s", stats.PerSemString())
		if forced {
			os.Exit(1) // an unclean (forced) drain is not a clean exit
		}
	case err := <-done:
		if cerr := srv.Store().CloseDurability(); cerr != nil {
			log.Printf("polyserve: wal close: %v", cerr)
		}
		if err != nil && err != server.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "polyserve: serve: %v\n", err)
			os.Exit(1)
		}
	}
}

// runReshardAdmin is the -split-shard / -merge-shards admin-client
// mode: one SPLIT or MERGE against the server at addr (the client
// handles the observe-epoch / retry-on-stale loop), new epoch printed
// on stdout. Returns the process exit code.
func runReshardAdmin(addr string, split int, merge string) int {
	if split >= 0 && merge != "" {
		fmt.Fprintln(os.Stderr, "polyserve: -split-shard and -merge-shards are mutually exclusive")
		return 2
	}
	cl, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "polyserve: dialing %s: %v\n", addr, err)
		return 1
	}
	defer cl.Close()
	if split >= 0 {
		epoch, err := cl.Split(uint64(split))
		if err != nil {
			fmt.Fprintf(os.Stderr, "polyserve: SPLIT %d: %v\n", split, err)
			return 1
		}
		fmt.Printf("SPLIT shard %d ok: routing epoch %d\n", split, epoch)
		return 0
	}
	aStr, bStr, ok := strings.Cut(merge, ",")
	if !ok {
		fmt.Fprintf(os.Stderr, "polyserve: -merge-shards wants \"a,b\" (stable shard ids), got %q\n", merge)
		return 2
	}
	a, errA := strconv.ParseUint(strings.TrimSpace(aStr), 10, 64)
	b, errB := strconv.ParseUint(strings.TrimSpace(bStr), 10, 64)
	if errA != nil || errB != nil {
		fmt.Fprintf(os.Stderr, "polyserve: -merge-shards wants \"a,b\" (stable shard ids), got %q\n", merge)
		return 2
	}
	epoch, err := cl.Merge(a, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polyserve: MERGE %d,%d: %v\n", a, b, err)
		return 1
	}
	fmt.Printf("MERGE shards %d,%d ok: routing epoch %d\n", a, b, epoch)
	return 0
}
