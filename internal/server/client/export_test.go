package client

import "polytm/internal/repl"

// WithTestBackoff shortens one watcher's reconnect delays so the redial
// tests run in milliseconds. It exists only in this package's test
// binary: a watcher built by Watch redials on repl.Redial's schedule.
func WithTestBackoff(b repl.Backoff) WatchOption {
	return func(w *Watcher) { w.backoff = b }
}
