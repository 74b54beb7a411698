package eval

import (
	"context"
	"strings"
	"testing"

	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// recoverStore has enough triples that a cross product inside a
// SERVICE body overflows a small MaxRows while the outer join fits.
func recoverStore() *rdf.Snapshot {
	st := rdf.NewStore()
	st.Add("a", "p", "b")
	st.Add("b", "p", "c")
	st.Add("c", "p", "d")
	st.Add("d", "p", "e")
	return st.Freeze()
}

func TestSilentServiceRecoveryCounted(t *testing.T) {
	sn := recoverStore()
	// The SERVICE body's cross product is 4x4 = 16 rows > MaxRows 10;
	// the outer pattern is 4 rows and survives the budget.
	q, err := sparql.Parse(`SELECT ?x WHERE {
		?x <p> ?y .
		SERVICE SILENT <http://remote/> { ?a <p> ?b . ?c <p> ?d . }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evaluators {
		res, err := ev.run(sn, q, Limits{MaxRows: 10})
		if err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		if len(res.Rows) != 4 {
			t.Errorf("%s: rows = %d, want 4 (unjoined input)", ev.name, len(res.Rows))
		}
		if res.Recovered != 1 {
			t.Errorf("%s: Recovered = %d, want 1", ev.name, res.Recovered)
		}
	}

	// A SERVICE body that succeeds must not count a recovery.
	q2, err := sparql.Parse(`SELECT ?x WHERE {
		?x <p> ?y .
		SERVICE SILENT <http://remote/> { ?x <p> ?y }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(sn, q2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 0 {
		t.Errorf("successful SERVICE: Recovered = %d, want 0", res.Recovered)
	}
}

func TestExplainNotesSilentService(t *testing.T) {
	sn := recoverStore()
	q, err := sparql.Parse(`SELECT ?x WHERE {
		?x <p> ?y .
		SERVICE SILENT <http://remote/> { ?x <p> ?z }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Explain(context.Background(), sn, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "SERVICE SILENT <http://remote/>: recover (0 silent recoveries)") ||
		!strings.Contains(text, "0 silent SERVICE recoveries") {
		t.Errorf("explain lacks the SERVICE SILENT operator or the recovery count:\n%s", text)
	}

	// A body that fails at run time is recovered, and both the operator
	// and the totals count it.
	q2, err := sparql.Parse(`SELECT ?x WHERE {
		?x <p> ?y .
		SERVICE SILENT <http://remote/> { ?a <p> ?b . ?c <p> ?d . ?e <p> ?f . ?g <p> ?h . ?i <p> ?j . ?k <p> ?l . ?m <p> ?n . ?o <p> ?q . ?r <p> ?s . ?t <p> ?u . ?v <p> ?w }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	text, err = Explain(context.Background(), sn, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "recover (1 silent recoveries)") || !strings.Contains(text, "1 silent SERVICE recoveries") {
		t.Errorf("explain does not count the silent recovery:\n%s", text)
	}
}
