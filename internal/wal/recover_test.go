package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestChainOrder drives chain assembly on headers alone — the crash
// leftovers delta_test.go can only reach by writing files.
func TestChainOrder(t *testing.T) {
	link := func(seg, self, base, parent uint64) chainLink {
		return chainLink{Seg: seg, Hdr: snapHeader{Self: self, Base: base, Parent: parent}}
	}
	cases := []struct {
		name                   string
		base                   uint64
		links                  []chainLink
		order, misnamed, stale []uint64
	}{
		{name: "empty chain", base: 2},
		{name: "no base: every delta is stale",
			links: []chainLink{link(3, 3, 2, 2)}, stale: []uint64{3}},
		{name: "straight chain", base: 2,
			links: []chainLink{link(3, 3, 2, 2), link(4, 4, 2, 3), link(5, 5, 2, 4)},
			order: []uint64{3, 4, 5}},
		{name: "contested parent: newest wins, the rest are stale", base: 2,
			links: []chainLink{link(3, 3, 2, 2), link(4, 4, 2, 3), link(5, 5, 2, 3), link(6, 6, 2, 3)},
			order: []uint64{3, 6}, stale: []uint64{4, 5}},
		{name: "the loser's own descendants are stale too", base: 2,
			links: []chainLink{link(3, 3, 2, 2), link(4, 4, 2, 2), link(5, 5, 2, 3)},
			order: []uint64{4}, stale: []uint64{3, 5}},
		{name: "orphans of a superseded base", base: 5,
			links: []chainLink{link(3, 3, 2, 2), link(4, 4, 2, 3), link(6, 6, 5, 5)},
			order: []uint64{6}, stale: []uint64{3, 4}},
		{name: "self does not match the file name", base: 2,
			links: []chainLink{link(3, 3, 2, 2), link(5, 4, 2, 3)},
			order: []uint64{3}, misnamed: []uint64{5}},
		{name: "missing middle link strands the tail", base: 2,
			links: []chainLink{link(3, 3, 2, 2), link(5, 5, 2, 4), link(6, 6, 2, 5)},
			order: []uint64{3}, stale: []uint64{5, 6}},
		{name: "missing first link strands everything", base: 2,
			links: []chainLink{link(4, 4, 2, 3), link(5, 5, 2, 4)},
			stale: []uint64{4, 5}},
		{name: "a delta naming itself as parent cannot loop", base: 2,
			links: []chainLink{link(2, 2, 2, 2), link(3, 3, 2, 3)},
			order: []uint64{2}, stale: []uint64{3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			order, misnamed, stale := chainOrder(tc.base, tc.links)
			if !reflect.DeepEqual(order, tc.order) || !reflect.DeepEqual(misnamed, tc.misnamed) || !reflect.DeepEqual(stale, tc.stale) {
				t.Fatalf("chainOrder = order %v misnamed %v stale %v, want %v %v %v",
					order, misnamed, stale, tc.order, tc.misnamed, tc.stale)
			}
		})
	}
}

// TestScanDir: names are classified and sorted, stray snapshot tmp
// files are swept and counted, and everything else is left alone.
func TestScanDir(t *testing.T) {
	dir := t.TempDir()
	names := []string{
		segName(3), segName(1), segName(12),
		ckptName(2), ckptName(9),
		deltaName(11), deltaName(10),
		ckptName(13) + ".tmp", deltaName(14) + ".tmp",
		"MANIFEST", "MANIFEST.tmp", "wal-x.log", "checkpoint-.ckpt", "delta-7.ckpt.bak", "notes.txt",
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "shard-0001"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := scanDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	want := dirScan{
		segs:     []uint64{1, 3, 12},
		ckpts:    []uint64{9, 2},
		deltas:   []uint64{10, 11},
		tmpSwept: 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDir = %+v, want %+v", got, want)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != len(names)+1-2 {
		t.Fatalf("%d entries left, want every one but the two snapshot tmp files", len(left))
	}
	for _, e := range left {
		if e.Name() == ckptName(13)+".tmp" || e.Name() == deltaName(14)+".tmp" {
			t.Fatalf("%s not swept", e.Name())
		}
	}
	if _, err := scanDir(filepath.Join(dir, "absent"), t.Logf); err == nil {
		t.Fatal("scanning a missing directory succeeded")
	}
}
