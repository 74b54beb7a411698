package server

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain runs the suite, then requires the goroutine count to come
// back to what it was before the first test: a goroutine a request,
// a pool or a test server leaves behind fails the package, with every
// goroutine's stack printed. A fuzzing run is not checked: the fuzzing
// engine keeps a signal goroutine of its own.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if code == 0 && !fuzzing && !goroutinesSettle(before, 5*time.Second) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "goroutine leak: %d running after the suite, %d before it\n\n%s\n",
			runtime.NumGoroutine(), before, buf)
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettle waits up to wait for at most n goroutines to run.
func goroutinesSettle(n int, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
