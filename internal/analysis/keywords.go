// Package analysis implements the per-query analyses of Sections 4 and 5
// of the paper: keyword usage (Table 2), operator-set distribution
// (Table 3), triple counting (Figure 1), the subquery and projection
// tests of Section 4.4, and the fragment hierarchy CQ / CPF / CQF / AOF /
// well-designed / CQOF of Section 5.2.
//
// A query is read twice, once for its syntax and once for its
// variables: Scan walks it once and returns its Features, everything
// the per-query tables read off the syntax; the query's sparql.Scope
// answers every variable question (Projection, and the
// well-designedness and interface width ClassifyFragments decides on
// the Scope's per-element sets).
package analysis

import "sparqlog/internal/sparql"

// Keyword is one SPARQL keyword Scan records. The first TableTwoRows
// are the rows of Table 2, in the paper's order; the rest are the
// other SPARQL 1.1 features (each <1% in the corpus; Section 4.1
// footnote 9).
type Keyword uint8

// Keywords, Table 2's rows first.
const (
	// Query types.
	KwSelect Keyword = iota
	KwAsk
	KwDescribe
	KwConstruct
	// Solution modifiers.
	KwDistinct
	KwLimit
	KwOffset
	KwOrderBy
	// Body operators.
	KwFilter
	KwAnd
	KwUnion
	KwOpt
	KwGraph
	KwNotExists
	KwMinus
	KwExists
	// Aggregates and grouping.
	KwCount
	KwMax
	KwMin
	KwAvg
	KwSum
	KwGroupBy
	KwHaving
	// Other features.
	KwReduced
	KwSample
	KwGroupConcat
	KwService
	KwBind
	KwValues
	KwSubQuery
	KwPropertyPath
	numKeywords
)

// TableTwoRows is the number of keywords that are rows of Table 2.
const TableTwoRows = int(KwHaving) + 1

var keywordNames = [numKeywords]string{
	"Select", "Ask", "Describe", "Construct",
	"Distinct", "Limit", "Offset", "Order By",
	"Filter", "And", "Union", "Opt", "Graph",
	"Not Exists", "Minus", "Exists",
	"Count", "Max", "Min", "Avg", "Sum",
	"Group By", "Having",
	"Reduced", "Sample", "Group Concat", "Service", "Bind", "Values",
	"Subquery", "Property Path",
}

// String returns the keyword's name, as Table 2 labels its row.
func (k Keyword) String() string { return keywordNames[k] }

// Keywords is the set of keywords a query uses, one bit per Keyword.
// Counting is per query: a query using FILTER five times holds Filter
// once.
type Keywords uint32

// Has reports whether k holds w.
func (k Keywords) Has(w Keyword) bool { return k&(1<<w) != 0 }

func (k *Keywords) set(w Keyword) { *k |= 1 << w }

// aggregates maps an aggregate function to its keyword.
var aggregates = map[string]Keyword{
	"COUNT": KwCount, "MAX": KwMax, "MIN": KwMin, "AVG": KwAvg,
	"SUM": KwSum, "SAMPLE": KwSample, "GROUP_CONCAT": KwGroupConcat,
}

// countJoinable counts the group elements that the SPARQL algebra joins
// with And: triple and path patterns, nested groups, unions, GRAPH,
// SERVICE, VALUES, and subqueries. OPTIONAL and MINUS fold with their own
// operators; FILTER and BIND never create a join.
func countJoinable(g *sparql.Group) int {
	n := 0
	for _, el := range g.Elems {
		switch el.(type) {
		case *sparql.Filter, *sparql.Bind, *sparql.Optional, *sparql.MinusGraph:
		default:
			n++
		}
	}
	return n
}
