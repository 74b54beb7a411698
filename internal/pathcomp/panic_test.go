package pathcomp

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"sparqlog/internal/rdf"
)

// chainGraph is a graph above pairsParMinTerms, so PairsParCtx fans
// out: 700 three-node chains over <a>, a <b> edge off every chain end.
func chainGraph() *rdf.Snapshot {
	st := rdf.NewStore()
	for c := 0; c < 700; c++ {
		st.Add(fmt.Sprintf("c%d_0", c), "a", fmt.Sprintf("c%d_1", c))
		st.Add(fmt.Sprintf("c%d_1", c), "a", fmt.Sprintf("c%d_2", c))
		st.Add(fmt.Sprintf("c%d_2", c), "b", fmt.Sprintf("c%d_0", (c*7+1)%700))
	}
	return st.Freeze()
}

// TestSweepWorkerPanicReachesCaller: a panic inside a sweep worker (the
// closure engine's component workers for <a>+, the stripe workers for
// the automaton) must not end the process. It surfaces as a panic of
// PairsParCtx on the calling goroutine, where the serving layer's
// recover lives, and the compiled path stays usable: the next sweep on
// the same *Path, pooled runners included, returns the serial answer.
func TestSweepWorkerPanicReachesCaller(t *testing.T) {
	defer func() { testHookSweep = nil }()
	sn := chainGraph()
	for _, expr := range []string{`<a>+`, `<a>/<b>`} {
		pa := compileExpr(t, sn, expr)
		want, err := pa.PairsCtx(nil, 0)
		if err != nil || len(want) == 0 {
			t.Fatalf("%q serial: %d pairs, err %v", expr, len(want), err)
		}

		var calls atomic.Int64
		testHookSweep = func() {
			if calls.Add(1) == 1 {
				panic("injected sweep panic")
			}
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			_, _ = pa.PairsParCtx(nil, 0, 4)
			return nil
		}()
		if got != "injected sweep panic" {
			t.Fatalf("%q: recovered %v on the calling goroutine, want the worker's panic value", expr, got)
		}

		testHookSweep = nil
		again, err := pa.PairsParCtx(nil, 0, 4)
		if err != nil {
			t.Fatalf("%q after the panic: %v", expr, err)
		}
		if !slices.Equal(again, want) {
			t.Fatalf("%q after the panic: %d pairs, want the serial enumeration's %d", expr, len(again), len(want))
		}
	}
}
