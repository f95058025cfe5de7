package stm

// The lock word of a transactional variable packs, into one uint64 that
// can be manipulated with a single atomic operation:
//
//	unlocked: bit 63 = 0, bits 0..62 = the owning engine's word
//	          (Engine.word), the same for every variable of the engine
//	locked:   bit 63 = 1, bits 0..62 = id of the owning transaction
//
// The word carries no version: a variable's version lives in its head
// record, and validation compares head pointers (readEntry.current). So
// one compare against the engine's word tells a reader both "unlocked"
// and "ours" (Txn.foreign has the rest). Engine words and transaction
// ids are both counters that comfortably fit in 63 bits.

const lockBit = uint64(1) << 63

// packOwner returns the locked lock word carrying owner transaction id o.
func packOwner(o uint64) uint64 { return o | lockBit }

// isLocked reports whether the lock word is in the locked state.
func isLocked(w uint64) bool { return w&lockBit != 0 }

// wordOwner extracts the owning transaction id from a locked lock word.
// It must only be called when isLocked(w) is true.
func wordOwner(w uint64) uint64 { return w &^ lockBit }
