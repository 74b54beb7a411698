package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sparqlog/internal/lint"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// exprGen draws random expressions over every operator and builtin the
// engine has, with deliberate type errors, divisions by zero, patterns
// that do not compile and calls with too few arguments mixed in. With
// no vars the expressions are closed: their only variable is ?unbound,
// which no pattern binds.
type exprGen struct {
	rng  *rand.Rand
	vars []string
}

// exprFamilies are the top-level forms family() can be asked for, one
// per group of builtins that share a kernel path.
var exprFamilies = []string{"compare", "arith", "string", "regex", "numeric", "termtest", "control"}

func (g *exprGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *exprGen) leaf() string {
	if len(g.vars) > 0 && g.rng.Intn(3) == 0 {
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	return g.pick(
		"0", "1", "2", "-3", "2.5", "1e2", "7",
		`"01"`, `"1"`, `"NaN"`, `""`, `"abc"`, `"ABC"`, `"b"`, `"("`, `"i"`, `"false"`, `"_:b1"`,
		`"chat"@fr`, `"5"@en`, "true", "false",
		"<urn:x>", "<tel:1>", "<doi:10.1/x>", "<http://example.org/a>", "ex:a",
		"?unbound",
	)
}

// expr draws an expression of at most the given depth from any family.
func (g *exprGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(5) == 0 {
		return g.leaf()
	}
	return g.family(exprFamilies[g.rng.Intn(len(exprFamilies))], depth)
}

// family draws an expression whose outermost form belongs to the named
// family; its operands come from any.
func (g *exprGen) family(name string, depth int) string {
	x := func() string { return g.expr(depth - 1) }
	switch name {
	case "compare":
		return fmt.Sprintf("(%s %s %s)", x(), g.pick("=", "!=", "<", ">", "<=", ">="), x())
	case "arith":
		if g.rng.Intn(4) == 0 {
			return fmt.Sprintf("(%s(%s))", g.pick("-", "+", "!"), x())
		}
		return fmt.Sprintf("(%s %s %s)", x(), g.pick("+", "-", "*", "/"), x())
	case "string":
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%s(%s)", g.pick("STR", "STRLEN", "UCASE", "LCASE"), x())
		case 1:
			return fmt.Sprintf("%s(%s, %s)", g.pick("CONTAINS", "STRSTARTS", "STRENDS"), x(), x())
		case 2:
			args := make([]string, g.rng.Intn(4))
			for i := range args {
				args[i] = x()
			}
			return "CONCAT(" + strings.Join(args, ", ") + ")"
		default:
			return fmt.Sprintf("%s(%s)", g.pick("CONTAINS", "STRENDS"), x()) // too few arguments
		}
	case "regex":
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("REGEX(%s, %s)", x(), x())
		}
		return fmt.Sprintf("REGEX(%s, %s, %s)", x(), x(), x())
	case "numeric":
		return fmt.Sprintf("%s(%s)", g.pick("ABS", "CEIL", "FLOOR", "ROUND"), x())
	case "termtest":
		if g.rng.Intn(4) == 0 {
			return fmt.Sprintf("SAMETERM(%s, %s)", x(), x())
		}
		return fmt.Sprintf("%s(%s)", g.pick("ISIRI", "ISURI", "ISLITERAL", "ISBLANK", "ISNUMERIC", "LANG", "DATATYPE", "NOSUCHBUILTIN"), x())
	default: // control: the forms that tolerate an erroring operand
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("(%s && %s)", x(), x())
		case 1:
			return fmt.Sprintf("(%s || %s)", x(), x())
		case 2:
			return fmt.Sprintf("(%s %s (%s, %s, %s))", x(), g.pick("IN", "NOT IN"), x(), x(), x())
		case 3:
			return fmt.Sprintf("IF(%s, %s, %s)", x(), x(), x())
		case 4:
			return fmt.Sprintf("COALESCE(%s, %s)", x(), x())
		default:
			return fmt.Sprintf("BOUND(%s)", g.pick("?unbound", "?s"))
		}
	}
}

// TestClosedExpressionDifferential is the contract between the static
// folder and the evaluator: sparqld answers a query the linter proves
// empty without evaluating it, so whenever lint.Empty holds for
// FILTER(<closed expression>), evaluating with the short circuit off
// must drop the row, on the executor and the reference. (The converse
// is not claimed: the folder may fail to prove an emptiness that is
// there.) Both share internal/value, so a disagreement here is a
// control-flow drift between internal/lint/fold.go and expr.go.
func TestClosedExpressionDifferential(t *testing.T) {
	start := time.Now()
	st := rdf.NewStore()
	st.Add("urn:s", "urn:p", "o")
	sn := st.Freeze()
	g := &exprGen{rng: rand.New(rand.NewSource(21))}
	empties, survivors, unproven := 0, 0, 0
	for i := 0; i < 4000; i++ {
		src := `PREFIX ex: <http://example.org/> SELECT * WHERE { ?s ?p ?o FILTER(` + g.expr(3) + `) }`
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("generator produced unparsable query %q: %v", src, err)
		}
		static := lint.Empty(q)
		columnar, err := QueryWithLimits(sn, q, Limits{noStatic: true})
		if err != nil {
			t.Fatalf("columnar eval of %q: %v", src, err)
		}
		ref, err := queryReference(sn, q, Limits{noStatic: true})
		if err != nil {
			t.Fatalf("reference eval of %q: %v", src, err)
		}
		if len(columnar.Rows) != len(ref.Rows) {
			t.Fatalf("evaluators diverge on %q: columnar=%d rows, reference=%d", src, len(columnar.Rows), len(ref.Rows))
		}
		switch kept := len(columnar.Rows) > 0; {
		case static && kept:
			t.Fatalf("unsound: lint.Empty holds for %q but the row survives evaluation", src)
		case static:
			empties++
		case kept:
			survivors++
		default:
			unproven++
		}
	}
	t.Logf("%d statically empty, %d surviving, %d dropped at run time without a static proof (%v)",
		empties, survivors, unproven, time.Since(start))
	if empties < 100 || survivors < 100 {
		t.Fatalf("vacuous: %d statically-empty and %d surviving cases, want at least 100 of each", empties, survivors)
	}
}

// TestTermTestsFollowTermKind pins isIRI / isLiteral / isBlank to the
// classification the result writers use (value.KindOf), on the executor
// and the reference and in the linter: a blank node is not a literal, and an
// IRI is one whatever its scheme.
func TestTermTestsFollowTermKind(t *testing.T) {
	st := rdf.NewStore()
	st.Add("urn:s", "urn:p", "_:b1")
	st.Add("urn:s", "urn:p", "tel:1")
	st.Add("urn:s", "urn:p", "doi:10.1/x")
	st.Add("urn:s", "urn:p", "plain")
	sn := st.Freeze()
	for _, tc := range []struct {
		filter string
		want   []string
	}{
		{`isLiteral(?o)`, []string{"plain"}},
		{`isBlank(?o)`, []string{"_:b1"}},
		{`isIRI(?o)`, []string{"doi:10.1/x", "tel:1"}},
		{`isURI(?o)`, []string{"doi:10.1/x", "tel:1"}},
		{`isIRI(<tel:1>) && isIRI(<doi:10.1/x>)`, []string{"_:b1", "doi:10.1/x", "plain", "tel:1"}},
		{`isLiteral(<tel:1>) || isBlank(<tel:1>)`, nil},
	} {
		src := `SELECT ?o WHERE { <urn:s> <urn:p> ?o FILTER(` + tc.filter + `) }`
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evaluators {
			res, err := ev.run(sn, q, Limits{noStatic: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedRows(res); strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("FILTER(%s) (%s) kept %q, want %q", tc.filter, ev.name, got, tc.want)
			}
		}
		if got := lint.Empty(q); got != (tc.want == nil) {
			t.Errorf("lint.Empty with FILTER(%s) = %v, want %v", tc.filter, got, tc.want == nil)
		}
	}
}
