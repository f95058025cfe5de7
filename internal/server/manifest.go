package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"polytm/internal/wal"
)

// The MANIFEST pins what a durable directory's logs mean. Two formats:
//
//	v1 (pre-resharding):  polyserve-wal shards=N
//	v2 (epoch-versioned): polyserve-wal v2 epoch=E next=I shards=N
//	                      shard <id> mod=<m> res=<r> dir=<d>   (× N)
//
// v1 implies routing epoch 0 with the historical layout: shard i has
// stable id i, hash slice (N, i), and directory shard-%04d (the root
// itself when N == 1). A store that has never resharded keeps writing
// v1, so old binaries and existing tests read its directories
// unchanged; the first SPLIT/MERGE upgrades the file to v2, where
// every shard's id, slice, and directory are explicit. The shard lines
// are in table order (ascending residue).
//
// The file is replaced atomically by wal.InstallFile (tmp + fsync +
// rename + dir sync), so a power cut leaves the old table or the new
// one, never an empty file. A crash can strand the .tmp — openManifest
// sweeps it, since the rename either happened (MANIFEST is the new
// content) or did not (MANIFEST is the old content); the orphan is dead
// either way. Malformed content is always a loud error: silently
// opening N shard logs under a wrong table scatters keys to the wrong
// stores.

// manifestShard is one shard entry: stable id, hash slice, and the log
// directory (relative to the store dir; "." = the root itself).
type manifestShard struct {
	ID       int
	Mod, Res uint64
	Dir      string
}

// storeManifest is a parsed MANIFEST.
type storeManifest struct {
	Epoch  uint64
	NextID int
	Shards []manifestShard // table order (ascending residue)
}

// legacyManifest builds the v1-implied manifest for an n-shard store.
func legacyManifest(n int) *storeManifest {
	m := &storeManifest{NextID: n, Shards: make([]manifestShard, n)}
	for i := range m.Shards {
		dir := "."
		if n > 1 {
			dir = fmt.Sprintf("shard-%04d", i)
		}
		m.Shards[i] = manifestShard{ID: i, Mod: uint64(n), Res: uint64(i), Dir: dir}
	}
	return m
}

// check refuses a shape that does not route every key to exactly one
// shard: each slice valid, ids unique and below next, residues
// ascending (table order), no two slices sharing a hash, and the
// slices' shares of the hash space summing to all of it.
func (m *storeManifest) check() error {
	share := new(big.Rat)
	for i, e := range m.Shards {
		switch {
		case e.Mod == 0 || e.Mod > math.MaxInt64 || e.Res >= e.Mod:
			return fmt.Errorf("shard %d has invalid slice (%d, %d)", e.ID, e.Mod, e.Res)
		case e.ID < 0 || e.ID >= m.NextID:
			return fmt.Errorf("shard id %d outside [0, next id %d)", e.ID, m.NextID)
		case i > 0 && e.Res <= m.Shards[i-1].Res:
			return fmt.Errorf("shards not in residue order")
		}
		for _, f := range m.Shards[:i] {
			g, b := e.Mod, f.Mod // (mod, res) pairs share a hash iff their residues agree mod gcd
			for b != 0 {
				g, b = b, g%b
			}
			if f.ID == e.ID || (e.Res-f.Res)%g == 0 {
				return fmt.Errorf("shards %d and %d overlap", f.ID, e.ID)
			}
		}
		share.Add(share, big.NewRat(1, int64(e.Mod)))
	}
	if share.Cmp(big.NewRat(1, 1)) != 0 {
		return fmt.Errorf("slices cover %v of the hash space", share)
	}
	return nil
}

// openManifest reads dir's MANIFEST (nil when the file is absent — a
// fresh directory) and sweeps a stale MANIFEST.tmp left by a crashed
// rewrite. Every malformed shape is an explicit error.
func openManifest(dir string) (*storeManifest, error) {
	if tmp := filepath.Join(dir, manifestName+".tmp"); fileExists(tmp) {
		// The rename either completed (MANIFEST holds the new content)
		// or never happened (MANIFEST holds the old); the orphan is
		// dead weight that would shadow nothing but confuse operators.
		os.Remove(tmp)
	}
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil, fmt.Errorf("server: %s in %s is empty or unreadable", manifestName, dir)
	}
	header := sc.Text()
	if n := 0; !strings.HasPrefix(header, "polyserve-wal v2 ") {
		// v1: the single legacy line.
		if _, serr := fmt.Sscanf(header, "polyserve-wal shards=%d", &n); serr != nil || n < 1 {
			return nil, fmt.Errorf("server: malformed %s in %s: %q", manifestName, dir, header)
		}
		return legacyManifest(n), nil
	}
	m := &storeManifest{}
	var n int
	if _, serr := fmt.Sscanf(header, "polyserve-wal v2 epoch=%d next=%d shards=%d", &m.Epoch, &m.NextID, &n); serr != nil || n < 1 {
		return nil, fmt.Errorf("server: malformed %s header in %s: %q", manifestName, dir, header)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e manifestShard
		if _, serr := fmt.Sscanf(line, "shard %d mod=%d res=%d dir=%s", &e.ID, &e.Mod, &e.Res, &e.Dir); serr != nil {
			return nil, fmt.Errorf("server: malformed %s shard line in %s: %q", manifestName, dir, line)
		}
		m.Shards = append(m.Shards, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m.Shards) != n {
		return nil, fmt.Errorf("server: %s in %s is truncated: header says %d shards, found %d", manifestName, dir, n, len(m.Shards))
	}
	if err := m.check(); err != nil {
		return nil, fmt.Errorf("server: %s in %s: %w", manifestName, dir, err)
	}
	return m, nil
}

// writeStoreManifest durably replaces dir's MANIFEST with m, keeping
// the v1 format while m is exactly what v1 implies.
func writeStoreManifest(dir string, m *storeManifest) error {
	var b strings.Builder
	if reflect.DeepEqual(m, legacyManifest(len(m.Shards))) {
		fmt.Fprintf(&b, "polyserve-wal shards=%d\n", len(m.Shards))
	} else {
		fmt.Fprintf(&b, "polyserve-wal v2 epoch=%d next=%d shards=%d\n", m.Epoch, m.NextID, len(m.Shards))
		for _, e := range m.Shards {
			fmt.Fprintf(&b, "shard %d mod=%d res=%d dir=%s\n", e.ID, e.Mod, e.Res, e.Dir)
		}
	}
	_, err := wal.InstallFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
	return err
}

// fileExists reports whether path exists (any kind).
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
