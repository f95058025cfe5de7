package stm

import (
	"fmt"
	"sync/atomic"
)

// statCounter names one engine event counter. A transaction tallies
// its counters in plain fields of its own (Txn.tally) and folds them
// into one stripe when the attempt finishes (Stats.flush), so the enum is
// the per-event half of the striped layout below.
type statCounter uint8

const (
	statCommits       statCounter = iota // successful commits
	statAborts                           // aborts of any kind
	statReadAborts                       // aborts during read validation/extension
	statLockAborts                       // aborts acquiring commit-time locks
	statValidateAbort                    // aborts during commit-time validation
	statKills                            // aborts requested by contention managers
	statExtensions                       // successful read-timestamp extensions
	statElasticCuts                      // elastic prefix cuts (the paper's γ windows sliding)
	statSnapshotReads                    // reads resolved from non-head versions
	statIrrevocables                     // transactions run irrevocably
	statVarsAllocated                    // NewVar calls
	statReads                            // transactional reads
	statWrites                           // transactional writes

	numStatCounters
)

// numSemClasses is the number of semantics classes tracked (Def, Weak,
// Snapshot, Irrevocable). Attribution is by the transaction's root
// parameter p — the semantics passed to start(p) — not by the effective
// semantics of nested scopes.
const numSemClasses = 4

// statsStripe is one shard's worth of counters, padded out to a
// cache-line multiple so adjacent stripes never false-share. Besides the
// event counters it keeps a (semantics × outcome) matrix, indexed by
// statCommits and statAborts, so a polymorphic workload can be broken
// down by the paper's parameter p: how many def transactions aborted
// while the snapshot readers all committed is precisely the
// schedule-acceptance gap the paper claims, made observable. (The block
// is (13+4×2)×8 = 168 bytes; the pad rounds it to 192.)
type statsStripe struct {
	c   [numStatCounters]atomic.Uint64
	sem [numSemClasses][statAborts + 1]atomic.Uint64
	_   [cacheLine - ((int(numStatCounters)+numSemClasses*int(statAborts+1))*8)%cacheLine]byte
}

// Stats holds the engine-wide event counters, striped across the
// engine's shard count. Each event lands on exactly one stripe, so
// StatsOf — which sums every stripe — is exact for every individual
// counter: striping relaxes only *where* an event is recorded, never
// *whether* it is. An attempt is recorded when it finishes, all its
// events at once: an open attempt's accesses are not visible until its
// commit or abort, and Starts is the number of finished attempts
// (Commits + Aborts). Counters are mutually consistent only
// approximately while transactions are in flight.
type Stats struct {
	stripes []statsStripe
	mask    uint64
}

// init sizes the stripe array; shards must be a power of two.
func (s *Stats) init(shards int) {
	s.stripes = make([]statsStripe, shards)
	s.mask = uint64(shards - 1)
}

// add bumps counter c on the stripe id maps to.
func (s *Stats) add(id uint64, c statCounter) {
	s.stripes[shardOf(id, s.mask)].c[c].Add(1)
}

// flush folds the tally of an attempt that finished with outcome
// (statCommits or statAborts) under root semantics p into the given
// stripe: one atomic add per counter the attempt moved, paid once per
// attempt rather than once per access.
func (s *Stats) flush(stripe uint64, p Semantics, outcome statCounter, tally *[numStatCounters]uint64) {
	st := &s.stripes[stripe&s.mask]
	st.c[outcome].Add(1)
	st.sem[p][outcome].Add(1)
	for c, n := range tally {
		if n != 0 {
			st.c[c].Add(n)
		}
	}
}

// reset zeroes every counter on every stripe.
func (s *Stats) reset() {
	for i := range s.stripes {
		for c := range s.stripes[i].c {
			s.stripes[i].c[c].Store(0)
		}
		for p := range s.stripes[i].sem {
			for c := range s.stripes[i].sem[p] {
				s.stripes[i].sem[p][c].Store(0)
			}
		}
	}
}

// StatsOf sums every stripe of every engine given into one snapshot:
// the one place engine counters are added up. Each event lands on
// exactly one stripe of one engine, so each sum is exact per counter.
func StatsOf(engines ...*Engine) StatsSnapshot {
	var c [numStatCounters]uint64
	var sem [numSemClasses][statAborts + 1]uint64
	for _, e := range engines {
		for i := range e.stats.stripes {
			st := &e.stats.stripes[i]
			for j := range c {
				c[j] += st.c[j].Load()
			}
			for p := range sem {
				for o := range sem[p] {
					sem[p][o] += st.sem[p][o].Load()
				}
			}
		}
	}
	s := StatsSnapshot{
		Starts:        c[statCommits] + c[statAborts],
		Commits:       c[statCommits],
		Aborts:        c[statAborts],
		ReadAborts:    c[statReadAborts],
		LockAborts:    c[statLockAborts],
		ValidateAbort: c[statValidateAbort],
		Kills:         c[statKills],
		Extensions:    c[statExtensions],
		ElasticCuts:   c[statElasticCuts],
		SnapshotReads: c[statSnapshotReads],
		Irrevocables:  c[statIrrevocables],
		VarsAllocated: c[statVarsAllocated],
		Reads:         c[statReads],
		Writes:        c[statWrites],
	}
	for p, n := range sem {
		s.PerSemantics[p] = SemStats{Starts: n[statCommits] + n[statAborts], Commits: n[statCommits], Aborts: n[statAborts]}
	}
	return s
}

// SemStats is the per-semantics-class slice of a StatsSnapshot: the
// attempts, commits, and aborts of transactions whose start(p) parameter
// was that class.
type SemStats struct {
	Starts, Commits, Aborts uint64
}

// AbortRate returns aborts per attempt for this class, in [0,1].
func (s SemStats) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Starts)
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Starts, Commits, Aborts               uint64
	ReadAborts, LockAborts, ValidateAbort uint64
	Kills, Extensions, ElasticCuts        uint64
	SnapshotReads, Irrevocables           uint64
	VarsAllocated, Reads, Writes          uint64

	// PerSemantics breaks starts/commits/aborts down by the
	// transaction's semantic parameter p, indexed by Semantics value
	// (Def, Weak, Snapshot, Irrevocable). Each class's counters obey the
	// same exactness as the global ones, and at quiescence the classes
	// sum to the global Starts/Commits/Aborts.
	PerSemantics [numSemClasses]SemStats
}

// Sem returns the per-semantics slice for class p (zero value for an
// out-of-range p).
func (s StatsSnapshot) Sem(p Semantics) SemStats {
	if int(p) >= len(s.PerSemantics) {
		return SemStats{}
	}
	return s.PerSemantics[p]
}

// AbortRate returns aborts per attempt, in [0,1].
func (s StatsSnapshot) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Starts)
}

// PerSemString renders the non-empty per-semantics classes as one
// diagnostic line.
func (s StatsSnapshot) PerSemString() string {
	out := ""
	for p := Semantics(0); p < numSemClasses; p++ {
		c := s.PerSemantics[p]
		if c.Starts == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%v{starts=%d commits=%d aborts=%d rate=%.3f}",
			p, c.Starts, c.Commits, c.Aborts, c.AbortRate())
	}
	if out == "" {
		return "(no transactions)"
	}
	return out
}

// String renders the snapshot as a single diagnostic line.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf(
		"starts=%d commits=%d aborts=%d (read=%d lock=%d val=%d kill=%d) ext=%d cuts=%d snapreads=%d irrevocable=%d reads=%d writes=%d abort-rate=%.3f",
		s.Starts, s.Commits, s.Aborts, s.ReadAborts, s.LockAborts,
		s.ValidateAbort, s.Kills, s.Extensions, s.ElasticCuts,
		s.SnapshotReads, s.Irrevocables, s.Reads, s.Writes, s.AbortRate())
}
