package analysis

import "sparqlog/internal/sparql"

// ProjectionVerdict is the tri-state result of the projection test of
// Section 4.4. The paper reports 14.98% definite projection plus 1.3%
// indeterminate because of BIND.
type ProjectionVerdict int

// Projection verdicts.
const (
	NoProjection ProjectionVerdict = iota
	UsesProjection
	Indeterminate
)

// String names the verdict.
func (v ProjectionVerdict) String() string {
	switch v {
	case NoProjection:
		return "no"
	case UsesProjection:
		return "yes"
	default:
		return "indeterminate"
	}
}

// Projection classifies s.Query following the test in Section 18.2.1 of
// the SPARQL 1.1 recommendation, as interpreted by the paper:
//
//   - a SELECT query uses projection when some in-scope variable of its
//     body is not in the projection list (SELECT * never projects);
//   - an ASK query uses projection when its body has in-scope variables
//     (the Boolean answer projects them all away); ASK queries over
//     concrete triples do not project;
//   - DESCRIBE and CONSTRUCT queries are not classified (the paper's
//     14.98% consists of SELECT and ASK queries only);
//   - when BIND-introduced variables are the only candidates, the verdict
//     is Indeterminate, mirroring the paper's 1.3% undetermined share.
func Projection(s *sparql.Scope) ProjectionVerdict {
	q := s.Query
	switch {
	case q.Type != sparql.SelectQuery && q.Type != sparql.AskQuery: // not classified
	case q.Type == sparql.AskQuery && s.InScope.Len() > 0:
		return UsesProjection
	case q.Type == sparql.AskQuery && s.BindOnly.Len() > 0:
		return Indeterminate
	case q.Type == sparql.AskQuery || q.SelectStar: // no projection
	case s.InScope.AndNot(s.Projected).Len() > 0:
		return UsesProjection
	case s.BindOnly.AndNot(s.Projected).Len() > 0:
		return Indeterminate
	}
	return NoProjection
}
