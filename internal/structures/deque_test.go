package structures

import (
	"sync"
	"testing"

	"polytm/internal/core"
)

func TestDequeBasics(t *testing.T) {
	tm := core.NewDefault()
	d := NewTDeque[int](tm)
	if _, ok := d.PopFront(); ok {
		t.Fatal("pop from empty deque")
	}
	if _, ok := d.PopBack(); ok {
		t.Fatal("pop from empty deque")
	}
	d.PushBack(2)
	d.PushFront(1)
	d.PushBack(3)
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	if v, _ := d.PopFront(); v != 1 {
		t.Fatalf("front = %d, want 1", v)
	}
	if v, _ := d.PopBack(); v != 3 {
		t.Fatalf("back = %d, want 3", v)
	}
	if v, _ := d.PopFront(); v != 2 {
		t.Fatalf("middle = %d, want 2", v)
	}
	if d.Len() != 0 {
		t.Fatalf("len = %d after drain", d.Len())
	}
}

func TestDequeRotate(t *testing.T) {
	tm := core.NewDefault()
	d := NewTDeque[int](tm)
	if d.Rotate() {
		t.Fatal("rotate of empty deque should be false")
	}
	for i := 1; i <= 3; i++ {
		d.PushBack(i)
	}
	if !d.Rotate() { // 1,2,3 -> 2,3,1
		t.Fatal("rotate failed")
	}
	got := d.Drain()
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after rotate: %v, want %v", got, want)
		}
	}
}

func TestDequeDrainAtomic(t *testing.T) {
	tm := core.NewDefault()
	d := NewTDeque[int](tm)
	for i := 0; i < 10; i++ {
		d.PushBack(i)
	}
	out := d.Drain()
	if len(out) != 10 || d.Len() != 0 {
		t.Fatalf("drain returned %d items, len now %d", len(out), d.Len())
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("drain[%d] = %d", i, v)
		}
	}
}

// TestDequeConcurrentBothEnds: producers on both ends, consumers on both
// ends; every pushed value is popped exactly once.
func TestDequeConcurrentBothEnds(t *testing.T) {
	tm := core.NewDefault()
	d := NewTDeque[uint64](tm)
	const producers, per = 4, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				v := id*100000 + i
				if id%2 == 0 {
					d.PushFront(v)
				} else {
					d.PushBack(v)
				}
			}
		}(uint64(p))
	}
	var seen sync.Map
	var cg sync.WaitGroup
	var popped sync.WaitGroup
	popped.Add(producers * per)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func(front bool) {
			defer cg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var v uint64
				var ok bool
				if front {
					v, ok = d.PopFront()
				} else {
					v, ok = d.PopBack()
				}
				if !ok {
					continue
				}
				if _, dup := seen.LoadOrStore(v, true); dup {
					t.Errorf("value %d popped twice", v)
					return
				}
				popped.Done()
			}
		}(c%2 == 0)
	}
	wg.Wait()
	popped.Wait()
	close(stop)
	cg.Wait()
	if d.Len() != 0 {
		t.Fatalf("len = %d, want 0", d.Len())
	}
}

// TestDequeEndsDoNotConflict guards the claim that both ends can be
// worked concurrently: once the deque holds two elements, a push at the
// front and a push at the back share no variable, so two goroutines
// pushing at opposite ends never abort each other. (On one P the pushes
// rarely overlap, so this guards the claim more than it proves it.)
func TestDequeEndsDoNotConflict(t *testing.T) {
	tm := core.NewDefault()
	d := NewTDeque[int](tm)
	d.PushBack(0)
	d.PushBack(0)
	const per = 10_000
	before := tm.Stats().Aborts
	var wg sync.WaitGroup
	for _, push := range []func(int){d.PushFront, d.PushBack} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				push(i)
			}
		}()
	}
	wg.Wait()
	if aborts := tm.Stats().Aborts - before; aborts != 0 {
		t.Errorf("front and back pushes aborted %d times, want 0", aborts)
	}
	if n := d.Len(); n != 2+2*per {
		t.Errorf("len = %d, want %d", n, 2+2*per)
	}
}

// TestDequeRotateConservation: concurrent rotates never lose or
// duplicate elements.
func TestDequeRotateConservation(t *testing.T) {
	tm := core.NewDefault()
	d := NewTDeque[int](tm)
	const n = 16
	for i := 0; i < n; i++ {
		d.PushBack(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Rotate()
			}
		}()
	}
	wg.Wait()
	out := d.Drain()
	if len(out) != n {
		t.Fatalf("len = %d, want %d", len(out), n)
	}
	present := map[int]bool{}
	for _, v := range out {
		if present[v] {
			t.Fatalf("duplicate %d", v)
		}
		present[v] = true
	}
	// Rotation preserves cyclic order: find 0 and check the cycle.
	start := 0
	for i, v := range out {
		if v == 0 {
			start = i
			break
		}
	}
	for i := 0; i < n; i++ {
		if out[(start+i)%n] != i {
			t.Fatalf("cyclic order broken: %v", out)
		}
	}
}
