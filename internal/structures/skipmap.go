package structures

import (
	"context"

	"polytm/internal/core"
)

// KV is one key/value pair of a TSkipMap range scan.
type KV struct {
	Key, Val string
}

// TSkipMap is a transactional ordered map from string keys to string
// values, backed by a skip list. Unlike TSkipList it does not fix the
// semantics of its operations: every method takes an enclosing *core.Tx,
// so the caller picks the semantics per operation — a point lookup can
// run as a never-abort snapshot read, a range scan elastically, an
// update under def, and a whole-map clear irrevocably, all over the
// same structure. That per-request-class choice is exactly what the
// polyserve server maps wire opcodes onto.
//
// Values live in their own TVar inside the node, separate from the
// index links, so an overwrite of an existing key conflicts only with
// accesses of that key, never with the tower structure around it.
type TSkipMap struct {
	skipCore[string, core.TVar[string]]
}

// NewTSkipMap creates an empty ordered map.
func NewTSkipMap(tm *core.TM) *TSkipMap {
	m := &TSkipMap{}
	m.skipCore.init(tm)
	return m
}

// GetTx looks key up inside tx, under tx's semantics. The string returned
// for a value written through PutBytesTx aliases its version record (see
// core.SetBytes): copy it rather than hold it long past the transaction.
func (m *TSkipMap) GetTx(tx *core.Tx, key string) (string, bool, error) {
	n, err := m.search(tx, key, m.levels(1), nil, nil)
	if err != nil || n == nil || n.key() != key {
		return "", false, err
	}
	v, err := core.Get(tx, &n.val)
	if err != nil {
		return "", false, err
	}
	return v, true, nil
}

// PutTx inserts or overwrites key inside tx, reporting whether the key
// already existed.
//
// key is BORROWED: PutTx only compares it, and the insert branch stores
// a private copy in the new node, so the caller may pass a string that
// views bytes it goes on to reuse — the server passes a zero-copy view
// of the request buffer and so pays for a key only when one is really
// inserted, not on every overwrite. The bytes must stay unchanged until
// the enclosing transaction's run returns (a retried body searches with
// them again). val is retained as passed and must be immutable.
func (m *TSkipMap) PutTx(tx *core.Tx, key, val string) (bool, error) {
	n, existed, err := m.put(tx, key, randLevel())
	if err == nil && existed {
		err = core.Set(tx, &n.val, val)
	} else if err == nil {
		n.val.Init(m.tm, val)
	}
	return existed, err
}

// PutBytesTx is PutTx with val BORROWED as well: the map keeps a copy
// the version record itself stores (core.SetBytes), so val may be
// rewritten as soon as the call returns, and a string a later GetTx or
// RangeTx returns for this key may alias that record — see SetBytes
// before holding one for long. It also returns the map's own copy of
// the key — the existing node's on an overwrite, the fresh node's on an
// insert — for callers that must remember which key they wrote. Like
// every key the map hands out, stored aliases its node (a key of up to
// 56 bytes is the node's own bytes): it keeps the whole node alive, so a
// caller that holds it long past the node's deletion copies it.
func (m *TSkipMap) PutBytesTx(tx *core.Tx, key string, val []byte) (stored string, existed bool, err error) {
	n, existed, err := m.put(tx, key, randLevel())
	switch {
	case err != nil:
		return "", false, err
	case existed:
		return n.key(), true, core.SetBytes(tx, &n.val, val)
	}
	core.InitBytes(m.tm, &n.val, val)
	return n.key(), false, nil
}

// DeleteTx removes key inside tx, reporting whether it was present and,
// if so, the map's own copy of the key. That string aliases the removed
// node (see PutBytesTx): holding it holds the node, its value and, along
// its links, whatever was deleted after it, so a caller that keeps it
// copies it.
func (m *TSkipMap) DeleteTx(tx *core.Tx, key string) (stored string, removed bool, err error) {
	n, err := m.remove(tx, key)
	if n == nil {
		return "", false, err
	}
	return n.key(), true, nil
}

// RangeTx walks keys in [from, to) in order inside tx, calling fn for
// each pair until fn returns false, limit pairs have been visited
// (limit <= 0 means unbounded), or the range is exhausted. An empty `to`
// means "to the end". The key fn is passed aliases its node and the
// value may alias its version record (see PutBytesTx): fn copies either
// to hold it long.
func (m *TSkipMap) RangeTx(tx *core.Tx, from, to string, limit int, fn func(key, val string) bool) error {
	curr, err := m.search(tx, from, m.levels(1), nil, nil)
	if err != nil {
		return err
	}
	for n := 0; curr != nil; n++ {
		k := curr.key()
		if (to != "" && k >= to) || (limit > 0 && n >= limit) {
			return nil
		}
		v, err := core.Get(tx, &curr.val)
		if err != nil {
			return err
		}
		if !fn(k, v) {
			return nil
		}
		curr, err = core.Get(tx, curr.next(0))
		if err != nil {
			return err
		}
	}
	return nil
}

// ClearTx unlinks every element inside tx, returning how many were
// removed. The unlink writes only the sentinel's tower, all sixteen
// levels: the hint may be stale (see remove). The count walks
// the bottom level it cut loose, so ClearTx reads O(n) variables — the
// price of a map that keeps no size variable, paid by FLUSH, an admin
// op.
//
// The order is load-bearing: read head.next(0), clear the tower, then
// count from that node. Under an explicit weak override the walk then
// runs after the first write, so it is validated like a def read and
// cannot miss an insert that the clear wipes. Under irrevocable and def
// the order makes no difference.
func (m *TSkipMap) ClearTx(tx *core.Tx) (int, error) {
	first, err := core.Get(tx, m.head.next(0))
	if err != nil {
		return 0, err
	}
	for l := range skipMaxLevel {
		if err := core.Set(tx, m.head.next(l), nil); err != nil {
			return 0, err
		}
	}
	return m.count(tx, first)
}

// Get is the one-shot form of GetTx under semantics sem.
func (m *TSkipMap) Get(key string, sem core.Semantics) (string, bool) {
	val, ok, err := m.GetCtx(context.Background(), key, sem)
	must(err)
	return val, ok
}

// GetCtx is Get bounded by ctx; cancellation surfaces as an error
// matching stm.ErrCancelled.
func (m *TSkipMap) GetCtx(ctx context.Context, key string, sem core.Semantics) (string, bool, error) {
	var val string
	var ok bool
	err := m.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
		var err error
		val, ok, err = m.GetTx(tx, key)
		return err
	})
	return val, ok, err
}

// Put is the one-shot form of PutTx under semantics sem.
func (m *TSkipMap) Put(key, val string, sem core.Semantics) bool {
	existed, err := m.PutCtx(context.Background(), key, val, sem)
	must(err)
	return existed
}

// PutCtx is Put bounded by ctx; a cancelled put's writes are discarded,
// never partially applied.
func (m *TSkipMap) PutCtx(ctx context.Context, key, val string, sem core.Semantics) (bool, error) {
	var existed bool
	err := m.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
		var err error
		existed, err = m.PutTx(tx, key, val)
		return err
	})
	return existed, err
}

// Delete is the one-shot form of DeleteTx under semantics sem.
func (m *TSkipMap) Delete(key string, sem core.Semantics) bool {
	removed, err := m.DeleteCtx(context.Background(), key, sem)
	must(err)
	return removed
}

// DeleteCtx is Delete bounded by ctx; a cancelled delete's writes are
// discarded, never partially applied.
func (m *TSkipMap) DeleteCtx(ctx context.Context, key string, sem core.Semantics) (bool, error) {
	var removed bool
	err := m.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
		var err error
		_, removed, err = m.DeleteTx(tx, key)
		return err
	})
	return removed, err
}

// Range is the one-shot form of RangeTx under semantics sem, collecting
// the visited pairs.
func (m *TSkipMap) Range(from, to string, limit int, sem core.Semantics) []KV {
	out, err := m.RangeCtx(context.Background(), from, to, limit, sem)
	must(err)
	return out
}

// RangeCtx is Range bounded by ctx; cancellation surfaces as an error
// matching stm.ErrCancelled with no pairs returned. Each KV.Key aliases
// its node, as RangeTx's keys do.
func (m *TSkipMap) RangeCtx(ctx context.Context, from, to string, limit int, sem core.Semantics) ([]KV, error) {
	// Sized once, outside the body: a bounded range then costs one
	// allocation however often the body retries, instead of one per
	// doubling.
	var out []KV
	if limit > 0 {
		out = make([]KV, 0, min(limit, 256))
	}
	err := m.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
		out = out[:0]
		return m.RangeTx(tx, from, to, limit, func(k, v string) bool {
			out = append(out, KV{Key: k, Val: v})
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Len returns the element count: one snapshot walk of the bottom level,
// O(n) (see snapshotLen).
func (m *TSkipMap) Len() int { return snapshotLen(m.tm, m.length) }
