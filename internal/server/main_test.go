package server

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests and then fails the run if a store
// loop (a TTL reaper or a checkpointer) is still running: a loop a test
// leaves behind keeps its goroutine and its store alive for the rest of
// the run, beside every later test.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := runningLoops(); leaked != "" {
			fmt.Fprintf(os.Stderr, "FAIL: store loops still running after every test returned"+
				" (GODEBUG=tracebackancestors=10 names the test that started each;"+
				" add -skip Allocs, whose pins it breaks):\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// runningLoops returns the stack of every goroutine inside
// (*loop).start, giving a loop that is being stopped a second to exit.
func runningLoops() string {
	deadline := time.Now().Add(time.Second)
	for {
		var leaked []string
		for _, g := range strings.Split(allStacks(), "\n\n") {
			if strings.Contains(g, ".(*loop).start") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// allStacks returns every goroutine's stack, one blank line apart.
func allStacks() string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
