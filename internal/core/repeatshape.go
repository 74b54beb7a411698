package core

import (
	"strconv"
	"sync"

	"sparqlog/internal/analysis"
	"sparqlog/internal/sparql"
)

// shapeCode is a repeat shape (RepeatShape) as a number: 1 +
// (form × SizeHistBuckets + triple bucket) × repeatFlagSets + flag set,
// so 1 to shapeCodes. 0 is no shape. The study counts repeats by code
// (shapeCounts) and spells the label only to key DatasetReport.Repeats,
// from a table of every label built once.
type shapeCode uint16

// repeatForms are the query forms of a repeat label, by sparql.QueryType;
// the last stands for any other type.
var repeatForms = [...]string{"SELECT", "ASK", "CONSTRUCT", "DESCRIBE", "OTHER"}

// repeatFlags are the operator flags of a repeat label in label order:
// bit i of a code's flag set is repeatFlags[i].
var repeatFlags = [...]string{"distinct", "filter", "opt", "union", "agg", "order", "limit"}

const (
	repeatFlagSets = 1 << len(repeatFlags)
	// shapeCodes is the number of repeat shapes: 5 forms × 13 triple
	// buckets × 128 flag sets = 8,320.
	shapeCodes = len(repeatForms) * SizeHistBuckets * repeatFlagSets
)

// RepeatShape returns the coarse structural label used for workload
// repeat-rate accounting: query form, bucketed triple count, and the
// operator keywords that dominate evaluation cost. The label is a
// function of the parsed structure only, so alpha-equivalent queries
// share one label and the table is identical whichever dedup mode
// produced it. f is q's scan. The label is shared, not allocated.
func RepeatShape(q *sparql.Query, f *analysis.Features) string {
	return shapeOf(q, f).label()
}

// shapeOf is the code of RepeatShape(q, f).
func shapeOf(q *sparql.Query, f *analysis.Features) shapeCode {
	form := len(repeatForms) - 1
	if q.Type >= 0 && int(q.Type) < form {
		form = int(q.Type)
	}
	k := f.Keywords
	flags := 0
	for i, on := range [len(repeatFlags)]bool{
		k.Has(analysis.KwDistinct),
		k.Has(analysis.KwFilter),
		k.Has(analysis.KwOpt),
		k.Has(analysis.KwUnion),
		k.Has(analysis.KwCount) || k.Has(analysis.KwMax) || k.Has(analysis.KwMin) ||
			k.Has(analysis.KwAvg) || k.Has(analysis.KwSum) || k.Has(analysis.KwGroupBy),
		k.Has(analysis.KwOrderBy),
		k.Has(analysis.KwLimit),
	} {
		if on {
			flags |= 1 << i
		}
	}
	return joinShape(form, bucket(f.TripleCount()), flags)
}

// joinShape is the code of a form, triple bucket and flag set.
func joinShape(form, bucket, flags int) shapeCode {
	return shapeCode(1 + (form*SizeHistBuckets+bucket)*repeatFlagSets + flags)
}

// split is joinShape's inverse.
func (c shapeCode) split() (form, bucket, flags int) {
	i := int(c) - 1
	flags, i = i%repeatFlagSets, i/repeatFlagSets
	return i / SizeHistBuckets, i % SizeHistBuckets, flags
}

// label is c's repeat label, a slice of the label table.
func (c shapeCode) label() string {
	t := shapeLabels()
	return t.text[t.ends[c-1]:t.ends[c]]
}

// shapeLabelTable holds every repeat label back to back in code order:
// code c's ends at ends[c] and starts where code c-1's ends.
type shapeLabelTable struct {
	text string
	ends [shapeCodes + 1]uint32
}

// shapeLabels builds the label table on first use: 254 KB of labels
// and 33 KB of ends.
var shapeLabels = sync.OnceValue(func() *shapeLabelTable {
	t := new(shapeLabelTable)
	var sb []byte
	for c := shapeCode(1); int(c) <= shapeCodes; c++ {
		form, b, flags := c.split()
		sb = strconv.AppendInt(append(append(sb, repeatForms[form]...), '/'), int64(b), 10)
		if b == SizeHistBuckets-1 {
			sb = append(sb, '+')
		}
		sb = append(sb, 't')
		for i, name := range repeatFlags {
			if flags&(1<<i) != 0 {
				sb = append(append(sb, '+'), name...)
			}
		}
		t.ends[c] = uint32(len(sb))
	}
	t.text = string(sb)
	return t
})

// shapeCounts is a repeat-rate table by shape code, indexed by code (0
// is unused).
type shapeCounts [shapeCodes + 1]RepeatStat

// noteShape records one valid occurrence of a repeat shape; unique
// additionally counts it as its class's representative. It counts by
// code: the label is spelled when the report is merged or handed out
// (spellRepeats).
func (rep *DatasetReport) noteShape(c shapeCode, unique bool) {
	s := &rep.shapeCounts()[c]
	s.Total++
	if unique {
		s.Unique++
	}
}

// noteShapeUnique counts a class representative whose occurrences were
// already recorded (the deferred-analysis paths of structural dedup).
func (rep *DatasetReport) noteShapeUnique(c shapeCode) {
	rep.shapeCounts()[c].Unique++
}

// shapeCounts returns rep's counts by code, made on first use.
func (rep *DatasetReport) shapeCounts() *shapeCounts {
	if rep.byShape == nil {
		rep.byShape = new(shapeCounts)
	}
	return rep.byShape
}

// spellRepeats moves the counts rep keeps by code into Repeats, under
// their labels.
func (rep *DatasetReport) spellRepeats() {
	if rep.byShape != nil {
		rep.addShapeCounts(rep.byShape)
		rep.byShape = nil
	}
}

// addShapeCounts adds counts by code to Repeats, under their labels.
func (rep *DatasetReport) addShapeCounts(counts *shapeCounts) {
	for c, s := range counts {
		if s != (RepeatStat{}) {
			rep.addRepeat(shapeCode(c).label(), s)
		}
	}
}

// addRepeat adds s to the Repeats row of label.
func (rep *DatasetReport) addRepeat(label string, s RepeatStat) {
	if rep.Repeats == nil {
		rep.Repeats = make(map[string]RepeatStat)
	}
	r := rep.Repeats[label]
	r.Total += s.Total
	r.Unique += s.Unique
	rep.Repeats[label] = r
}
