package server

import (
	"io"
	"net/http"
	"net/url"
	"testing"

	"sparqlog/internal/rdf"
)

// TestTermTestsAgreeWithWire asks the endpoint the same question two
// ways: which kind the JSON writer gives a cell, and whether the cell
// passes FILTER(isIRI / isBlank / isLiteral). Both read the term's
// text through value.KindOf, so a cell typed "uri" on the wire passes
// isIRI and no other test, whatever its scheme.
func TestTermTestsAgreeWithWire(t *testing.T) {
	st := rdf.NewStore()
	for _, o := range []string{"http://example.org/x", "tel:1", "doi:10.1/x", "urn:isbn:1", "_:b1", "plain", "42"} {
		st.Add("urn:s", "urn:p", o)
	}
	_, ts := newTestServer(t, Config{Snapshot: st.Freeze()})
	cells := func(filter string) map[string]string {
		t.Helper()
		q := `SELECT ?o WHERE { <urn:s> <urn:p> ?o ` + filter + ` }`
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?query="+url.QueryEscape(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", ctJSON)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, read error %v: %s", resp.StatusCode, err, body)
		}
		_, bindings := decodeJSONRows(t, body)
		kinds := map[string]string{}
		for _, b := range bindings {
			kinds[b["o"]["value"]] = b["o"]["type"]
		}
		return kinds
	}
	all := cells("")
	if len(all) != 7 {
		t.Fatalf("expected 7 cells, got %v", all)
	}
	for _, tc := range []struct{ test, wire string }{
		{"isIRI", "uri"}, {"isBlank", "bnode"}, {"isLiteral", "literal"},
	} {
		passed := cells(`FILTER(` + tc.test + `(?o))`)
		for text, kind := range all {
			if _, ok := passed[text]; ok != (kind == tc.wire) {
				t.Errorf("cell %q is %q on the wire but %s(?o) = %v", text, kind, tc.test, ok)
			}
		}
	}
}
