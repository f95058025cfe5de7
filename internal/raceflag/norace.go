//go:build !race

package raceflag

// Enabled reports that the build is race-instrumented.
const Enabled = false
