package stm

// The lock word of a transactional variable packs, into one uint64 that
// can be manipulated with a single atomic operation:
//
//	unlocked: bit 63 = 0, bits 0..62 = version (commit timestamp of the
//	          current head version)
//	locked:   bit 63 = 1, bits 0..62 = id of the owning transaction
//
// Versions and transaction ids are both monotonically increasing counters
// and comfortably fit in 63 bits.

const lockBit = uint64(1) << 63

// directStoreOwner is the reserved lock-word owner id used by
// Var.StoreDirect's CAS-guarded publish. Transaction attempt ids start
// at 1 (see Txn.nextAttemptID), so 0 can never collide with a live
// transaction.
const directStoreOwner = uint64(0)

// packVersion returns the unlocked lock word carrying version v.
func packVersion(v uint64) uint64 { return v &^ lockBit }

// packOwner returns the locked lock word carrying owner transaction id o.
func packOwner(o uint64) uint64 { return o | lockBit }

// isLocked reports whether the lock word is in the locked state.
func isLocked(w uint64) bool { return w&lockBit != 0 }

// wordOwner extracts the owning transaction id from a locked lock word.
// It must only be called when isLocked(w) is true.
func wordOwner(w uint64) uint64 { return w &^ lockBit }
