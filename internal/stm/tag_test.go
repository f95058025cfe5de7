package stm

import "testing"

// taggedBox returns an untyped record of val carrying tag.
func taggedBox(val any, tag uint8) *Version {
	rec := boxed(val)
	rec.SetTag(tag)
	return rec
}

// TestTagBesideTopStamps runs a variable whose every record is tagged
// up to the last commit timestamp a ver word holds, 2^56 - 1, with
// tags that set the top bit, so a comparison that kept the tag would
// see every record as newer than any reader. Snapshot readers parked
// at each timestamp resolve their own record below the head; def (also
// through an extension), elastic (also through a cut) and irrevocable
// reads take the head; every record keeps its tag through its install;
// a write keeps only the history its oldest reader needs; and once the
// readers leave, the history kept for them is cut and the head keeps
// its tag.
func TestTagBesideTopStamps(t *testing.T) {
	const top = 1<<56 - 1
	tags := []uint8{0xff, 0x80, 1, 0x7f, 0xfe}
	e := NewDefaultEngine()
	// Room for four writes, the irrevocable reader's tick, the elastic
	// reader's rival and the write that takes the top stamp.
	e.clock.t.Store(top - uint64(len(tags)) - 2)
	x, y := new(Var), e.NewVar("y")
	e.InitVar(x, taggedBox(0, tags[0]))
	readers := []*Txn{e.Begin(SemanticsSnapshot)}
	for i := 1; i < len(tags); i++ {
		if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.WriteVersion(x, taggedBox(i, tags[i])) }); err != nil {
			t.Fatal(err)
		}
		h := x.head.Load()
		if h.Tag() != tags[i] || h.ver&stampMask != e.clock.Now() {
			t.Fatalf("write %d installed tag %#x at stamp %d, want tag %#x at %d", i, h.Tag(), h.ver&stampMask, tags[i], e.clock.Now())
		}
		readers = append(readers, e.Begin(SemanticsSnapshot))
	}
	read := func(tx *Txn, want int) {
		t.Helper()
		rec, err := tx.ReadVersion(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := unboxed(rec); got != want || rec.Tag() != tags[want] {
			t.Errorf("%v read %v tagged %#x, want %d tagged %#x", tx.Semantics(), got, rec.Tag(), want, tags[want])
		}
	}
	for i, r := range readers {
		read(r, i)
	}
	last := len(tags) - 1
	for _, sem := range []Semantics{SemanticsDef, SemanticsWeak, SemanticsIrrevocable} {
		if err := e.Run(sem, func(tx *Txn) error { read(tx, last); return nil }); err != nil {
			t.Fatal(err)
		}
	}

	// A def and an elastic reader begun below the next commit read y,
	// then meet x's newer head: the def reader extends, the elastic one
	// cuts.
	def, weak := e.Begin(SemanticsDef), e.Begin(SemanticsWeak)
	for _, tx := range []*Txn{def, weak} {
		if _, err := tx.Read(y); err != nil {
			t.Fatal(err)
		}
	}
	write := func(i int) {
		t.Helper()
		if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.WriteVersion(x, taggedBox(i, tags[i])) }); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	for _, tx := range []*Txn{def, weak} {
		read(tx, 0)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.ElasticCuts == 0 || st.Extensions == 0 {
		t.Errorf("reads of the newer head made %d cuts and %d extensions, want one of each", st.ElasticCuts, st.Extensions)
	}

	// Every reader but the newest leaves; the write at the top stamp
	// keeps only what that reader resolves to: itself, the head it
	// replaces, and the newest reader's record.
	for i, r := range readers[:last] {
		read(r, i) // every reader's record is still linked
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	if e.clock.Now() != top {
		t.Fatalf("clock at %d, want the top stamp %d", e.clock.Now(), uint64(top))
	}
	n := 0
	for cur := x.head.Load(); cur != nil; cur = cur.prev.Load() {
		n++
	}
	if n != 3 {
		t.Errorf("chain holds %d records after the write at the top stamp, want 3", n)
	}

	// A reader at the top stamp needs only the head: when the newest old
	// reader leaves, the history kept for it is cut although one remains.
	late := e.Begin(SemanticsSnapshot)
	read(readers[last], last)
	if err := readers[last].Commit(); err != nil {
		t.Fatal(err)
	}
	h := x.head.Load()
	if h.prev.Load() != nil {
		t.Error("history kept for the old readers was not cut once they left")
	}
	if h.Tag() != tags[1] || h.ver&stampMask != top {
		t.Errorf("head tagged %#x at stamp %d after the cut, want %#x at %d", h.Tag(), h.ver&stampMask, tags[1], uint64(top))
	}
	read(late, 1)
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
}
