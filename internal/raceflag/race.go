//go:build race

// Package raceflag tells tests whether the race detector instruments
// this build: its changes to escape analysis inflate allocation counts,
// so strict allocs/op budgets skip themselves under -race and are
// asserted by the non-race CI step instead.
package raceflag

// Enabled reports that the build is race-instrumented.
const Enabled = true
