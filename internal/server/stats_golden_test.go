package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polytm/internal/core"
	"polytm/internal/wire"
)

// statsRowNames returns the names of st's STATS reply, in order.
func statsRowNames(t *testing.T, st *Store) string {
	t.Helper()
	var b strings.Builder
	for _, c := range execOK(t, st, &wire.Request{Op: wire.OpStats}).Counters {
		b.WriteString(c.Name)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestStatsRowNamesGolden: the STATS vocabulary — every row name, in
// order — matches the list pinned under testdata/stats/. Clients read
// these names off the wire (the ledger's STATS-delta scraping among
// them), so a row renamed, dropped, added or moved is a reviewed diff.
// The files were written by the hand-built STATS list that preceded
// StatsOf; they are never regenerated from new code.
func TestStatsRowNamesGolden(t *testing.T) {
	cases := []struct {
		name  string
		store func(t *testing.T) *Store
	}{
		{"volatile-1shard", func(t *testing.T) *Store { return NewStore(core.NewDefault()) }},
		{"durable-2shard-hub", func(t *testing.T) *Store {
			srv := New(Config{StoreShards: 2, TTLReapEvery: -1})
			if _, err := srv.Store().EnableDurability(Durability{Dir: t.TempDir(), CheckpointEvery: -1}); err != nil {
				t.Fatalf("durability: %v", err)
			}
			t.Cleanup(func() { srv.Store().CloseDurability() })
			if err := srv.EnableReplication(ReplConfig{}); err != nil {
				t.Fatalf("replication: %v", err)
			}
			return srv.Store()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "stats", c.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := statsRowNames(t, c.store(t)); got != string(golden) {
				t.Fatalf("STATS rows:\n%s\ngolden:\n%s", got, golden)
			}
		})
	}
}
