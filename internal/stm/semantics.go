package stm

import "fmt"

// Semantics is the polymorphism parameter p of the paper's start(p):
// the per-transaction semantic hint that selects how the engine
// synchronizes this transaction's accesses. The zero value is
// SemanticsDef, the paper's default semantics "def", so omitting the
// parameter yields a monomorphic transaction exactly as in the paper.
type Semantics uint8

const (
	// SemanticsDef is the default, safest semantics: the transaction is
	// opaque and appears to execute atomically at a single point (all of
	// its accesses form one critical step). This is what every
	// transaction of a monomorphic TM runs.
	SemanticsDef Semantics = iota

	// SemanticsWeak ("weak" in the paper's Figure 1) runs the
	// transaction as an elastic transaction [Felber, Gramoli, Guerraoui,
	// DISC 2009]: before its first write, only each pair of consecutive
	// reads must be mutually consistent (the paper's critical steps
	// γ1 = {r(x), r(y)}, γ2 = {r(y), r(z)}), so the read prefix may be
	// "cut" on conflict instead of aborting. Ideal for search phases of
	// linked data structures.
	SemanticsWeak

	// SemanticsSnapshot gives the transaction multi-version read-only
	// semantics: every read resolves against the committed snapshot at
	// the transaction's start time, so read-only transactions never
	// abort and never block writers. Writing under SemanticsSnapshot is
	// an error (ErrSnapshotWrite); the core layer can transparently
	// restart the transaction under SemanticsDef.
	SemanticsSnapshot

	// SemanticsIrrevocable guarantees the transaction commits on its
	// first and only attempt (a per-transaction liveness guarantee, one
	// of the applications the paper lists). It is implemented with a
	// commit gate (irrevocable.go): a per-engine token admits one
	// irrevocable transaction at a time, which shuts out writing commits,
	// waits for those in flight, then reads without locking and locks
	// only its write set, only for its commit window. Readers of any
	// semantics therefore wait only for that window, never for the body;
	// a writing optimistic commit waits at the gate for the whole span;
	// and a separate writing transaction started on the same engine from
	// inside an irrevocable body deadlocks on the gate.
	SemanticsIrrevocable
)

// String returns the paper-style name of the semantics.
func (s Semantics) String() string {
	switch s {
	case SemanticsDef:
		return "def"
	case SemanticsWeak:
		return "weak"
	case SemanticsSnapshot:
		return "snapshot"
	case SemanticsIrrevocable:
		return "irrevocable"
	default:
		return fmt.Sprintf("Semantics(%d)", uint8(s))
	}
}

// Valid reports whether s is one of the defined semantics.
func (s Semantics) Valid() bool { return s <= SemanticsIrrevocable }

// Strength orders semantics from weakest to strongest guarantee, used by
// the NestStrongest nesting-composition policy (the paper's concluding
// question: "what should be the semantics of a nested transaction?").
// Irrevocable > Def > Snapshot > Weak.
func (s Semantics) Strength() int {
	switch s {
	case SemanticsIrrevocable:
		return 3
	case SemanticsDef:
		return 2
	case SemanticsSnapshot:
		return 1
	case SemanticsWeak:
		return 0
	default:
		return -1
	}
}

// Stronger returns the stronger of the two semantics under Strength.
func Stronger(a, b Semantics) Semantics {
	if a.Strength() >= b.Strength() {
		return a
	}
	return b
}
