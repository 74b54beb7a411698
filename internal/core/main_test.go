package core

import (
	"os"
	"testing"

	"sparqlog/internal/sparql"
)

// TestMain sets sparql.TestHookPoison for the package's tests: a slot
// that keeps a tree past its parser's next Parse (structural dedup's
// representatives are the trees the study keeps) then reads poison, and
// the report it makes differs from AnalyzeLog's.
func TestMain(m *testing.M) {
	sparql.TestHookPoison.Store(true)
	os.Exit(m.Run())
}

// unpoisoned clears sparql.TestHookPoison for the rest of t: under the
// hook a reused Parser drops its slabs at each Parse, so allocations
// are counted only without it.
func unpoisoned(t *testing.T) {
	sparql.TestHookPoison.Store(false)
	t.Cleanup(func() { sparql.TestHookPoison.Store(true) })
}
