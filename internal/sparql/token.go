// Package sparql implements a lexer, parser, abstract syntax tree, and
// serializer for the SPARQL 1.1 query language fragment observed in public
// endpoint query logs.
//
// The package is the foundation of the sparqlog analytics pipeline: every
// statistic reported by the paper "An Analytical Study of Large SPARQL Query
// Logs" (Bonifati, Martens, Timm; VLDB 2017) is a function of the syntax
// trees produced here. The grammar coverage includes all four query types
// (SELECT, ASK, CONSTRUCT, DESCRIBE), group graph patterns with FILTER,
// OPTIONAL, UNION, GRAPH, MINUS, BIND, VALUES, SERVICE and subqueries,
// property paths, expressions with the full operator precedence chain,
// aggregates, and solution modifiers.
package sparql

import (
	"fmt"
	"strings"
)

// TokenKind enumerates lexical token categories.
type TokenKind int

// Token kinds. Keywords are lexed as Ident and resolved case-insensitively
// by the parser, following the SPARQL 1.1 recommendation in which keywords
// are not reserved against prefixed-name local parts.
const (
	EOF TokenKind = iota
	Ident
	IRIRef     // <http://...>
	PName      // prefixed name: foaf:name, or a bare prefix "foaf:"
	Var        // ?x or $x
	BlankNode  // _:b0
	StringLit  // 'x', "x", '''x''', """x"""
	NumberLit  // 42, 3.14, .5, 1e9
	LangTag    // @en
	ANON       // []
	NIL        // ()
	LBrace     // {
	RBrace     // }
	LParen     // (
	RParen     // )
	LBracket   // [
	RBracket   // ]
	Dot        // .
	Semicolon  // ;
	Comma      // ,
	Eq         // =
	Neq        // !=
	Lt         // <
	Gt         // >
	Le         // <=
	Ge         // >=
	AndAnd     // &&
	OrOr       // ||
	Bang       // !
	Plus       // +
	Minus      // -
	Star       // *
	Slash      // /
	Pipe       // |
	Caret      // ^
	CaretCaret // ^^
	Question   // ? (path modifier; distinguished from Var by lookahead)
	A          // the keyword 'a' (rdf:type)
)

var tokenNames = map[TokenKind]string{
	EOF: "EOF", Ident: "identifier", IRIRef: "IRI", PName: "prefixed name",
	Var: "variable", BlankNode: "blank node", StringLit: "string",
	NumberLit: "number", LangTag: "language tag", ANON: "[]", NIL: "()",
	LBrace: "{", RBrace: "}", LParen: "(", RParen: ")", LBracket: "[",
	RBracket: "]", Dot: ".", Semicolon: ";", Comma: ",", Eq: "=", Neq: "!=",
	Lt: "<", Gt: ">", Le: "<=", Ge: ">=", AndAnd: "&&", OrOr: "||",
	Bang: "!", Plus: "+", Minus: "-", Star: "*", Slash: "/", Pipe: "|",
	Caret: "^", CaretCaret: "^^", Question: "?", A: "a",
}

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical unit with its offset in the source.
type Token struct {
	Kind TokenKind
	// Text is the token's surface form. For IRIRef the angle brackets are
	// stripped; for Var the leading ? or $ is stripped; for StringLit the
	// quotes are stripped and escapes are decoded; for LangTag the @ is
	// stripped.
	Text string
	// Pos is the byte offset of the token's first byte in the source;
	// PositionAt gives its line and column.
	Pos int
}

// Position locates a byte of the input.
type Position struct {
	Offset int // byte offset, 0-based
	Line   int // 1-based
	Col    int // 1-based, in bytes
}

// PositionAt returns the position of byte offset off of src: its line is
// one more than the newlines before it, its column one more than the
// bytes between it and the last of them.
func PositionAt(src string, off int) Position {
	before := src[:off]
	return Position{
		Offset: off,
		Line:   1 + strings.Count(before, "\n"),
		Col:    off - strings.LastIndexByte(before, '\n'),
	}
}

// String renders the position as "line:col".
func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SyntaxError describes a lexical or grammatical error with its position.
type SyntaxError struct {
	Pos Position
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: syntax error at %s: %s", e.Pos, e.Msg)
}

// fmtSprintf is aliased so the lexer's hot path can format errors without
// importing fmt itself.
var fmtSprintf = fmt.Sprintf
