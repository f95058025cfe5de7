// Package schedule is an executable rendition of Section 2 of the paper
// ("Evaluating Concurrency"): shared registers, operations, critical-step
// semantics, schedules, histories, well-formedness, and the execution of
// schedules by the three synchronizations (lock-based, monomorphic
// transactions, polymorphic transactions).
//
// # Model
//
// A shared memory is partitioned into registers supporting atomic reads
// and writes. An operation π (run by a process p) is a sequence of read
// and write accesses. The semantics s of an operation assigns its
// accesses to critical steps γ — e.g. the sorted-linked-list contains
// r(x),r(y),r(z) has pairs semantics γ1={r(x),r(y)}, γ2={r(y),r(z)}:
// each pair must be atomic somewhere, but no single point needs all
// three values simultaneously.
//
// A schedule is an interleaving of the operations' events extended with
// synchronization events: lock(x)/unlock(x) for lock-based operations,
// start(p)/commit for transactional ones. Executing a schedule under a
// synchronization yields a history (reads carry returned values) or an
// abort, in which case the schedule is invalid for that synchronization.
// A schedule is accepted if its execution yields a valid history —
// one equivalent to a sequential history of its critical steps.
//
// # Executor semantics (the operational choices, and why)
//
// The brief announcement leaves the TM operationally underspecified; we
// pin it down to the canonical single-version opaque TM that "def"
// denotes (and that internal/stm implements), which is the reading under
// which both theorems hold and Figure 1 behaves as the paper states:
//
//   - Reads return the latest committed value at the read event
//     (single-version memory; transactional writes are buffered and
//     apply at commit).
//   - A monomorphic (def) transaction keeps its entire read set current:
//     at every access and at commit, every previously read value must
//     still be the register's committed value, else the transaction
//     aborts (this is TL2/LSA validation with extension-to-now).
//   - A weak (elastic) transaction keeps only a sliding window of its
//     most recent reads current — the paper's pairwise critical steps;
//     older reads are cut. After its first write it behaves like def for
//     the remaining accesses.
//   - Lock-based execution applies writes in place; a lock event that
//     would block (register held by another process) means the given
//     interleaving cannot be produced, so the schedule is rejected.
package schedule

import (
	"fmt"
	"strings"
)

// Register is a shared register name (the paper's x, y, z).
type Register string

// Proc identifies a process (the paper's p1, p2, p3). Valid processes
// are numbered from 1.
type Proc int

// String renders p like the paper ("p1").
func (p Proc) String() string { return fmt.Sprintf("p%d", int(p)) }

// Kind enumerates event kinds.
type Kind uint8

// Event kinds: synchronization events and accesses.
const (
	KLock Kind = iota
	KUnlock
	KStart
	KCommit
	KRead
	KWrite
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KLock:
		return "lock"
	case KUnlock:
		return "unlock"
	case KStart:
		return "start"
	case KCommit:
		return "commit"
	case KRead:
		return "r"
	case KWrite:
		return "w"
	default:
		return "?"
	}
}

// Sem is the semantic parameter of start(p) in input schedules.
type Sem uint8

// Semantic parameters. SemDef is the paper's def (all accesses one
// critical step); SemWeak is the paper's weak (elastic: consecutive
// pairs of accesses are the critical steps); SemSnapshot reads the
// committed state at the transaction's start. A monomorphic execution
// maps every parameter to SemDef.
const (
	SemDef Sem = iota
	SemWeak
	SemSnapshot
)

// String renders the parameter as in the paper's figure.
func (s Sem) String() string {
	switch s {
	case SemDef:
		return "def"
	case SemWeak:
		return "weak"
	case SemSnapshot:
		return "snapshot"
	default:
		return "?"
	}
}

// Event is one schedule event. Reg is set for lock, unlock, read and
// write events; Sem for start events; Val for write events (the written
// value) and, in histories, for read events (the returned value).
type Event struct {
	P    Proc
	Kind Kind
	Reg  Register
	Sem  Sem
	Val  int
}

// String renders the event in the paper's notation, e.g. "p1:r(x)" or
// "p2:start(def)".
func (e Event) String() string {
	switch e.Kind {
	case KStart:
		return fmt.Sprintf("%v:start(%v)", e.P, e.Sem)
	case KCommit:
		return fmt.Sprintf("%v:commit", e.P)
	case KRead:
		return fmt.Sprintf("%v:r(%s)", e.P, e.Reg)
	case KWrite:
		return fmt.Sprintf("%v:w(%s,%d)", e.P, e.Reg, e.Val)
	default:
		return fmt.Sprintf("%v:%v(%s)", e.P, e.Kind, e.Reg)
	}
}

// Schedule is a sequence of events — the paper's I.
type Schedule struct {
	Events []Event
}

// String renders the schedule one event per line.
func (s Schedule) String() string {
	var b strings.Builder
	for i, e := range s.Events {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Procs returns the set of processes appearing in the schedule, in
// first-appearance order.
func (s Schedule) Procs() []Proc {
	var out []Proc
	seen := map[Proc]bool{}
	for _, e := range s.Events {
		if !seen[e.P] {
			seen[e.P] = true
			out = append(out, e.P)
		}
	}
	return out
}

// ByProc returns p's subsequence of events (the projection defining p's
// operation).
func (s Schedule) ByProc(p Proc) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.P == p {
			out = append(out, e)
		}
	}
	return out
}

// IsTransactional reports whether the schedule contains only
// transactional events (start/commit/read/write).
func (s Schedule) IsTransactional() bool {
	for _, e := range s.Events {
		if e.Kind == KLock || e.Kind == KUnlock {
			return false
		}
	}
	return true
}

// Grid renders the schedule in the paper's figure layout: one column per
// process, one row per event.
func (s Schedule) Grid() string {
	procs := s.Procs()
	col := map[Proc]int{}
	for i, p := range procs {
		col[p] = i
	}
	var b strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&b, "%-16s", p.String())
	}
	b.WriteString("\n")
	for _, e := range s.Events {
		c := col[e.P]
		b.WriteString(strings.Repeat(" ", 16*c))
		// Strip the "pN:" prefix for the grid cell.
		cell := e.String()
		if i := strings.IndexByte(cell, ':'); i >= 0 {
			cell = cell[i+1:]
		}
		b.WriteString(cell)
		b.WriteString("\n")
	}
	return b.String()
}
