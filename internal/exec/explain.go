package exec

import (
	"fmt"
	"strings"

	"sparqlog/internal/pathcomp"
)

// PathEval is one evaluation a path operator runs for an input row,
// chosen by which of the pattern's ends the row binds.
type PathEval int

// Path evaluations.
const (
	PathHolds   PathEval = iota // both ends bound: one reachability test
	PathForward                 // subject bound: the nodes it reaches
	PathReverse                 // object bound: the nodes reaching it
	PathLoops                   // one variable on both ends: the loop set
	PathPairs                   // both ends free: the multi-source sweep
	numPathEvals
)

var pathEvalNames = [numPathEvals]string{
	"holds (both ends bound)",
	"forward (subject bound)",
	"reverse (object bound)",
	"loops (one variable on both ends)",
	"multi-source sweep (both ends free)",
}

// PathRuns counts the input rows a path operator served with each
// evaluation, indexed by PathEval.
type PathRuns [numPathEvals]int64

// String lists the evaluations that ran, with their row counts.
func (r PathRuns) String() string {
	var parts []string
	for k, n := range r {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s x%d", pathEvalNames[k], n))
		}
	}
	if len(parts) == 0 {
		return "none (no input row arrived)"
	}
	return strings.Join(parts, ", ")
}

// OpInfo is what an explain transcript reads off one operator. Inspect
// builds it on demand: an operator keeps nothing for explain beyond its
// OpStats and, for a path, its PathRuns.
type OpInfo struct {
	// Label names the operator and what this package knows of its
	// arguments ("limit 10", "streaming aggregation: 40 rows -> 3
	// groups"); the compiler that placed it knows what it evaluates.
	Label string
	// In is the stream the operator pulls; nil for a source.
	In Operator
	// Sides are the subtrees it runs beside that stream: OPTIONAL's
	// inner pipeline (once per input row), UNION's two branches, MINUS's
	// removal set and SERVICE SILENT's body.
	Sides []Operator
	// Path and Runs describe a path operator: its compiled expression
	// and the evaluations it ran.
	Path *pathcomp.Path
	Runs PathRuns
}

// Inspect describes op for an explain transcript.
func Inspect(op Operator) OpInfo {
	switch o := op.(type) {
	case *unit:
		return OpInfo{Label: "unit"}
	case *Seed:
		return OpInfo{Label: "seed"}
	case *filterOp:
		return OpInfo{Label: "filter", In: o.in}
	case *applyOp:
		return OpInfo{Label: "apply", In: o.in}
	case *joinOp:
		return OpInfo{Label: "join", In: o.in}
	case *pathOp:
		return OpInfo{Label: "path", In: o.in, Path: o.pa, Runs: o.runs}
	case *tableJoin:
		return OpInfo{Label: fmt.Sprintf("values (%d rows)", len(o.rows)), In: o.in}
	case *optionalOp:
		return OpInfo{Label: "optional", In: o.in, Sides: []Operator{o.inner}}
	case *unionOp:
		return OpInfo{Label: "union", In: o.in, Sides: []Operator{o.left, o.right}}
	case *minusOp:
		return OpInfo{Label: "minus", In: o.in, Sides: []Operator{o.inner}}
	case *recoverOp:
		return OpInfo{Label: fmt.Sprintf("recover (%d silent recoveries)", o.stats.Recovered), In: o.in, Sides: []Operator{o.inner}}
	case *distinctOp:
		return OpInfo{Label: "distinct", In: o.in}
	case *limitOp:
		label := fmt.Sprintf("offset %d", o.offset)
		if o.limit >= 0 {
			label = fmt.Sprintf("offset %d limit %d", o.offset, o.limit)
		}
		return OpInfo{Label: label, In: o.in}
	case *GroupBy:
		if !o.built {
			return OpInfo{Label: "streaming aggregation: input not drained", In: o.in}
		}
		return OpInfo{Label: fmt.Sprintf("streaming aggregation: %d rows -> %d groups", o.info.InputRows, o.info.Groups), In: o.in}
	case *TopK:
		if !o.built {
			return OpInfo{Label: "top-k order by: input not drained", In: o.in}
		}
		return OpInfo{Label: fmt.Sprintf("top-k order by: mode=%s, scanned %d rows, kept %d", o.info.Mode, o.info.Scanned, o.info.Kept), In: o.in}
	}
	return OpInfo{Label: fmt.Sprintf("%T", op)}
}
