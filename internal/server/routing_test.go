package server

import (
	"fmt"
	"testing"
)

// TestSplitSlicesMath: a split's two child slices exactly partition the
// parent slice — every key the parent owned lands on exactly one child,
// and no key from outside ever matches either.
func TestSplitSlicesMath(t *testing.T) {
	const mod, res = 4, 1
	sMod, sRes, dMod, dRes := splitSlices(mod, res)
	if sMod != 8 || sRes != 1 || dMod != 8 || dRes != 5 {
		t.Fatalf("splitSlices(4,1) = (%d,%d),(%d,%d); want (8,1),(8,5)", sMod, sRes, dMod, dRes)
	}
	for i := 0; i < 4096; i++ {
		h := hashKey([]byte(fmt.Sprintf("key-%d", i)))
		parent := h%mod == res
		src := h%sMod == sRes
		dst := h%dMod == dRes
		if parent != (src || dst) {
			t.Fatalf("hash %d: parent=%v src=%v dst=%v — children must partition the parent", h, parent, src, dst)
		}
		if src && dst {
			t.Fatalf("hash %d matched both children", h)
		}
	}
}

// TestMergeable: buddy validation accepts exactly the inverse of one
// split and rejects everything else.
func TestMergeable(t *testing.T) {
	if mod, res, err := mergeable(8, 1, 8, 5); err != nil || mod != 4 || res != 1 {
		t.Fatalf("mergeable(8,1 / 8,5) = (%d,%d), %v; want (4,1), nil", mod, res, err)
	}
	for _, bad := range []struct {
		name                   string
		aMod, aRes, bMod, bRes uint64
	}{
		{"unlike moduli", 8, 1, 4, 5},
		{"odd modulus", 3, 1, 3, 2},
		{"modulus one", 1, 0, 1, 0},
		{"not buddies", 8, 1, 8, 3},
		{"reversed pair", 8, 5, 8, 1},
	} {
		if _, _, err := mergeable(bad.aMod, bad.aRes, bad.bMod, bad.bRes); err == nil {
			t.Errorf("%s: mergeable(%d,%d / %d,%d) accepted", bad.name, bad.aMod, bad.aRes, bad.bMod, bad.bRes)
		}
	}
}

// TestRoutingTablePos: the uniform fast path and the mixed-moduli slow
// path agree, and a mixed table still partitions the hash space.
func TestRoutingTablePos(t *testing.T) {
	mk := func(slices []hashSlice) *routingTable {
		shards := make([]*shard, len(slices))
		for i := range shards {
			shards[i] = &shard{idx: i}
		}
		return newRoutingTable(1, shards, slices)
	}
	uni := mk([]hashSlice{{4, 0}, {4, 1}, {4, 2}, {4, 3}})
	if uni.uniform != 4 {
		t.Fatalf("uniform table not detected: %d", uni.uniform)
	}
	// Post-split of residue 1: (8,1) and (8,5) replace (4,1).
	mixed := mk([]hashSlice{{4, 0}, {8, 1}, {4, 2}, {4, 3}, {8, 5}})
	if mixed.uniform != 0 {
		t.Fatalf("mixed table claimed uniform %d", mixed.uniform)
	}
	for i := 0; i < 4096; i++ {
		h := hashKey([]byte(fmt.Sprintf("key-%d", i)))
		owners := 0
		for _, sl := range mixed.slices {
			if h%sl.mod == sl.res {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("hash %d owned by %d slices", h, owners)
		}
		p := mixed.pos(h)
		sl := mixed.slices[p]
		if h%sl.mod != sl.res {
			t.Fatalf("pos(%d) = %d but slice (%d,%d) does not own it", h, p, sl.mod, sl.res)
		}
		// The keys that stayed at modulus 4 must route identically in
		// both tables (a split moves only the split shard's keys).
		if h%4 != 1 && uni.pos(h) != func() int {
			for i, s := range mixed.slices {
				if h%s.mod == s.res {
					return i
				}
			}
			return -1
		}() {
			t.Fatalf("hash %d moved across an unrelated split", h)
		}
	}
	if p := mixed.posByID(4); p < 0 || mixed.shards[p].idx != 4 || mixed.posByID(9) != -1 {
		t.Fatalf("posByID lookup broken")
	}
}
