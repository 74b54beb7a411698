package server

import (
	"slices"
	"strings"
)

// SPARQL 1.1 Query Results media types the endpoint can produce.
const (
	ctJSON = "application/sparql-results+json"
	ctXML  = "application/sparql-results+xml"
	ctCSV  = "text/csv"
	ctTSV  = "text/tab-separated-values"
)

// offers are the result types in preference order, each with the media
// types that name it and the type/* range that covers it.
var offers = [...]struct {
	ct     string
	names  []string
	family string
}{
	{ctJSON, []string{ctJSON, "application/json"}, "application/*"},
	{ctXML, []string{ctXML, "application/xml", "text/xml"}, "application/*"},
	{ctCSV, []string{ctCSV}, "text/*"},
	{ctTSV, []string{ctTSV}, "text/*"},
}

// match is the Accept range that decides one offer's q: how specific it
// is (2 one of the offer's names, 1 its type/*, 0 */*, -1 no range yet)
// and its position in the header.
type match struct {
	q         float64
	spec, ord int
}

// beats orders two offers by their deciding ranges: the higher q, then
// a named type over a wildcard, then the earlier range in the header.
func (m match) beats(o match) bool {
	if m.q != o.q {
		return m.q > o.q
	}
	if m.spec != o.spec {
		return m.spec > o.spec
	}
	return m.ord < o.ord
}

// negotiate picks the result media type for an Accept header value,
// ok=false when the client accepts none of the supported types (406).
// An absent or wildcard Accept falls back to the JSON results format,
// the primary serialization of the protocol spec.
//
// Each offer takes its q from the most specific range that matches it
// (RFC 9110 §12.5.1), so a wildcard never overrides a type the client
// refused with q=0. The offer whose deciding range beats the others'
// (match.beats) wins; a full tie goes to the earlier offer.
func negotiate(accept string) (string, bool) {
	accept = strings.TrimSpace(accept)
	if accept == "" {
		return ctJSON, true
	}
	var ms [len(offers)]match
	for i := range ms {
		ms[i].spec = -1
	}
	for ord, part := range strings.Split(accept, ",") {
		mt, q := parseAcceptPart(part)
		for i, o := range offers {
			spec := -1
			switch {
			case slices.Contains(o.names, mt):
				spec = 2
			case mt == o.family:
				spec = 1
			case mt == "*/*":
				spec = 0
			}
			if spec >= 0 && (spec > ms[i].spec || spec == ms[i].spec && q > ms[i].q) {
				ms[i] = match{q, spec, ord}
			}
		}
	}
	best := -1
	for i, m := range ms {
		if m.q > 0 && (best < 0 || m.beats(ms[best])) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	return offers[best].ct, true
}

// parseAcceptPart splits one Accept list element into its media type
// and q value (default 1).
func parseAcceptPart(part string) (string, float64) {
	fields := strings.Split(part, ";")
	mt := strings.ToLower(strings.TrimSpace(fields[0]))
	q := 1.0
	for _, p := range fields[1:] {
		p = strings.TrimSpace(p)
		if v, ok := strings.CutPrefix(p, "q="); ok {
			q = parseQ(v)
		}
	}
	return mt, q
}

// parseQ parses a q value leniently; malformed values read as 0 so the
// element is ignored rather than failing the whole header.
func parseQ(s string) float64 {
	var v float64
	var seen, frac bool
	scale := 0.1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			seen = true
			if frac {
				v += float64(c-'0') * scale
				scale /= 10
			} else {
				v = v*10 + float64(c-'0')
			}
		case c == '.' && !frac:
			frac = true
		default:
			return 0
		}
	}
	if !seen || v > 1 {
		return 0
	}
	return v
}
