package server

import (
	"testing"

	"polytm/internal/wire"
)

// TestSetExLongTTL: a TTL too long for the clock saturates instead of
// wrapping. A 250-year deadline overflowed Unix nanoseconds and read as
// long past, so the key was acknowledged and then gone at once; 1<<62 ms
// wrapped the duration itself to zero and came back as a zero-TTL error.
func TestSetExLongTTL(t *testing.T) {
	st := newSharded(1)
	for _, tc := range []struct {
		name   string
		millis uint64
	}{
		{"250 years", 250 * 365 * 24 * 3600 * 1000},
		{"1<<62 ms", 1 << 62},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := []byte(tc.name)
			execOK(t, st, &wire.Request{Op: wire.OpSetEx, Sem: wire.SemDefault, Key: key, Val: []byte("v"), TTLMillis: tc.millis})
			if resp := st.Execute(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: key}); resp.Status != wire.StatusOK || string(resp.Val) != "v" {
				t.Fatalf("GET after SETEX: %v %q", resp.Status, resp.Val)
			}
			if _, err := st.ReapExpired(t.Context()); err != nil {
				t.Fatal(err)
			}
			if resp := st.Execute(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: key}); resp.Status != wire.StatusOK {
				t.Fatalf("GET after a reap: %v", resp.Status)
			}
		})
	}
}
