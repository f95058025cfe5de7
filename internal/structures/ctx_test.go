package structures

import (
	"context"
	"errors"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/stm"
)

// TestDequeueBlockingCtxCancelled: a consumer parked on an empty queue
// wakes within its deadline with a typed cancellation error, and a live
// consumer still receives an element produced after it parked.
func TestDequeueBlockingCtxCancelled(t *testing.T) {
	tm := core.NewDefault()
	q := NewTQueue[int](tm)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := q.DequeueBlockingCtx(ctx)
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled consumer stayed parked")
	}
	if !errors.Is(err, stm.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled/DeadlineExceeded", err)
	}

	// A live consumer is woken by a producer, not the deadline.
	got := make(chan int, 1)
	go func() {
		v, err := q.DequeueBlockingCtx(context.Background())
		if err != nil {
			t.Errorf("live consumer: %v", err)
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.Enqueue(41)
	select {
	case v := <-got:
		if v != 41 {
			t.Fatalf("consumer got %d, want 41", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer did not wake the parked consumer")
	}
}

// TestStructureCtxForms smoke-tests the *Ctx one-shot forms across the
// structures: Background behaves like the plain form; a dead context is
// a typed no-op that leaves the structure untouched.
func TestStructureCtxForms(t *testing.T) {
	tm := core.NewDefault()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()

	l := NewTList(tm, core.Weak)
	if added, err := l.InsertCtx(bg, 7); err != nil || !added {
		t.Fatalf("list InsertCtx: %v %v", added, err)
	}
	if _, err := l.InsertCtx(dead, 8); !errors.Is(err, stm.ErrCancelled) {
		t.Fatalf("list InsertCtx(dead): %v", err)
	}
	if found, err := l.ContainsCtx(bg, 8); err != nil || found {
		t.Fatal("cancelled insert landed in list")
	}
	if removed, err := l.RemoveCtx(bg, 7); err != nil || !removed {
		t.Fatalf("list RemoveCtx: %v %v", removed, err)
	}

	h := NewTHash(tm, core.Weak, 8)
	if added, err := h.InsertCtx(bg, 1); err != nil || !added {
		t.Fatalf("hash InsertCtx: %v %v", added, err)
	}
	if _, err := h.RemoveCtx(dead, 1); !errors.Is(err, stm.ErrCancelled) {
		t.Fatalf("hash RemoveCtx(dead): %v", err)
	}
	if found, err := h.ContainsCtx(bg, 1); err != nil || !found {
		t.Fatal("cancelled remove emptied hash")
	}

	// A skip list built for weak searches still commits its updates as
	// def: read the split from the engine's per-semantics counters.
	sl := NewTSkipList(tm, core.Weak)
	before := tm.Stats()
	if added, err := sl.InsertCtx(bg, 3); err != nil || !added {
		t.Fatalf("skiplist InsertCtx: %v %v", added, err)
	}
	if found, err := sl.ContainsCtx(bg, 3); err != nil || !found {
		t.Fatal("skiplist lost 3")
	}
	if _, err := sl.RemoveCtx(dead, 3); !errors.Is(err, stm.ErrCancelled) {
		t.Fatalf("skiplist RemoveCtx(dead): %v", err)
	}
	if removed, err := sl.RemoveCtx(bg, 3); err != nil || !removed {
		t.Fatalf("skiplist RemoveCtx: %v %v", removed, err)
	}
	after := tm.Stats()
	def := after.Sem(core.Def).Commits - before.Sem(core.Def).Commits
	weak := after.Sem(core.Weak).Commits - before.Sem(core.Weak).Commits
	if def != 2 || weak != 1 {
		t.Fatalf("skiplist (weak) insert+remove+contains committed %d def and %d weak, want 2 and 1", def, weak)
	}

	m := NewTSkipMap(tm)
	if _, err := m.PutCtx(bg, "a", "1", core.Def); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PutCtx(dead, "b", "2", core.Def); !errors.Is(err, stm.ErrCancelled) {
		t.Fatalf("skipmap PutCtx(dead): %v", err)
	}
	if v, ok, err := m.GetCtx(bg, "a", core.Snapshot); err != nil || !ok || v != "1" {
		t.Fatalf("skipmap GetCtx: %q %v %v", v, ok, err)
	}
	if _, ok, err := m.GetCtx(bg, "b", core.Snapshot); err != nil || ok {
		t.Fatal("cancelled put landed in skipmap")
	}
	if kvs, err := m.RangeCtx(bg, "", "", 0, core.Weak); err != nil || len(kvs) != 1 {
		t.Fatalf("skipmap RangeCtx: %v %v", kvs, err)
	}

	if err := q0(tm, dead); err == nil {
		t.Fatal("queue EnqueueCtx(dead) succeeded")
	}
}

// q0 exercises the queue's ctx forms.
func q0(tm *core.TM, dead context.Context) error {
	q := NewTQueue[int](tm)
	if err := q.EnqueueCtx(dead, 1); err != nil {
		return err
	}
	return nil
}
