package stm

import "runtime"

// Irrevocable path (SemanticsIrrevocable).
//
// An irrevocable transaction is guaranteed to commit on its only
// attempt: it never validates, never aborts on conflict, and may
// therefore perform irreversible side effects (I/O). The guarantee is
// obtained with a commit gate, the inevitability design of Spear,
// Michael and Scott ("Implementing and Exploiting Inevitability in
// STMs", ICPP 2008) and of Welc, Saha and Adl-Tabatabai ("Irrevocable
// Transactions and their Applications", SPAA 2008): the transaction
// fences out concurrent *writing commits* rather than locking what it
// touches.
//
//   - begin takes the engine's token (irrevocable transactions serialize
//     against each other), raises the gate, waits until the live
//     registry is empty — every writing optimistic commit already past
//     the gate has finished — and samples rv.
//   - Its reads are one lock-word compare and one head load each, and
//     its writes are only buffered. Nothing else can publish while the
//     gate is up, so every read returns the state at rv.
//   - commitIrrevocable locks the write set (nobody else can hold those
//     locks), ticks, installs, and releases at the new version: the
//     optimistic publish without validation. Readers wait on those
//     locks across the tick exactly as they do for any committer.
//   - finish lowers the gate, then releases the token.
//
// Why it is safe. A writing optimistic commit registers in the live
// registry (a CAS on its slot, or an atomic add on the spill count),
// then loads the gate (passGate). The irrevocable stores the gate, then
// loads every slot and spill count (liveRegistry.drain). The atomics are
// sequentially consistent, so this is a Dekker pair: at least one side
// sees the other. Either the committer sees the gate and backs off
// before taking a lock, or the drain sees the committer and waits for it
// to finish. So no writing commit publishes during an irrevocable span:
// every irrevocable read is the state at rv, and the commit at wv > rv
// has nothing between them. The transaction is serializable, and it
// cannot abort.
//
// What that costs others: readers of any semantics wait only for the
// commit window, never for the body, and read-only commits never look
// at the gate. A writing optimistic commit waits at the gate for the
// whole irrevocable span. The corollary is that a *separate* writing
// transaction started on the same engine from inside an irrevocable
// body deadlocks: it waits for a gate its own goroutine holds.

// beginIrrevocable opens an irrevocable attempt: token, gate, drain,
// then the read timestamp.
func (tx *Txn) beginIrrevocable() {
	tx.eng.irrevocable.Lock()
	tx.irrevocableHeld = true
	tx.eng.gate.Store(true)
	tx.eng.live.drain()
	tx.rv = tx.eng.clock.Now()
	tx.stat(statIrrevocables)
}

// readIrrevocable performs one irrevocable-mode read: one lock-word
// compare and one head load. The gate keeps every other writer of the
// engine from publishing, so a word that is not the engine's can only be
// another engine's, which waitUnlocked reports once any lock on it is
// let go.
func (tx *Txn) readIrrevocable(v *Var) (*Version, error) {
	if v.lw.Load() != tx.word {
		if err := tx.waitUnlocked(v); err != nil {
			return nil, err
		}
	}
	return v.head.Load(), nil
}

// passGate registers a writing optimistic commit as a lock owner — the
// committer's half of the Dekker pair — once no irrevocable transaction
// holds the gate. While one does, the attempt leaves the registry, so
// the irrevocable's drain does not wait for it, and waits for the gate
// to clear; a kill or a cancelled context ends the wait as it ends
// waitUnlocked's.
func (tx *Txn) passGate() error {
	for {
		tx.registerLive()
		if !tx.eng.gate.Load() {
			return nil
		}
		tx.unregisterLive()
		for tx.eng.gate.Load() {
			if err := tx.interrupted(); err != nil {
				return err
			}
			runtime.Gosched()
		}
	}
}

// commitIrrevocable publishes the buffered writes at a fresh commit
// timestamp. It cannot fail: each write checked its variable is the
// engine's, and the gate and the token leave no other holder for any
// lock it takes.
func (tx *Txn) commitIrrevocable() {
	for i := range tx.wset {
		if !tx.wset[i].v.lw.CompareAndSwap(tx.word, packOwner(tx.id)) {
			panic("stm: irrevocable commit met a held lock")
		}
	}
	tx.publish(tx.eng.clock.Tick())
	tx.finish(statusCommitted)
}
