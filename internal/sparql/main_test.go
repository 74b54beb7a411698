package sparql_test

import (
	"os"
	"testing"

	"sparqlog/internal/sparql"
)

// TestMain sets TestHookPoison for the package's tests, so that a test
// (or a part of the package) that keeps a tree past its Parser's next
// Parse reads poison and fails.
func TestMain(m *testing.M) {
	sparql.TestHookPoison.Store(true)
	os.Exit(m.Run())
}

// unpoisoned clears TestHookPoison for the rest of t: under the hook a
// reused Parser drops its slabs at each Parse, so its allocations are
// counted only without it.
func unpoisoned(t *testing.T) {
	sparql.TestHookPoison.Store(false)
	t.Cleanup(func() { sparql.TestHookPoison.Store(true) })
}
