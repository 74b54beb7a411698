package sparql

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns SPARQL source text into a stream of tokens.
//
// The lexer is hand-written for speed: query-log analysis tokenizes
// hundreds of millions of small queries, so it keeps nothing but its
// byte offset, and it can start at any offset. A reused Parser starts it
// past the PREFIX lines a text repeats from the text before: a repeated
// prologue is compared, not lexed. A token carries the offset of its
// first byte; a line and column exist only in a SyntaxError, which
// computes them from the offset when it is built (PositionAt). Names,
// prefixed names and variables classify ASCII bytes by table and decode
// a rune only at a byte >= 0x80. Token text is a slice of the source,
// except a string literal with an escape sequence, whose decoded text is
// the lexer's only allocation.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src}
}

// errorf builds a SyntaxError at byte offset pos of the source.
func (l *Lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: PositionAt(l.src, pos), Msg: sprintf(format, args...)}
}

// sprintf is a tiny indirection so the lexer does not import fmt on the
// hot path (token.go already imports it for names).
func sprintf(format string, args ...any) string {
	if len(args) == 0 {
		return format
	}
	return fmtSprintf(format, args...)
}

func (l *Lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// emit returns the n-byte token of the given kind at the current offset
// and moves past it.
func (l *Lexer) emit(kind TokenKind, n int) Token {
	t := Token{Kind: kind, Text: l.src[l.pos : l.pos+n], Pos: l.pos}
	l.pos += n
	return t
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\r', '\n', '\f', 0x0b:
			l.pos++
		case '#':
			i := strings.IndexByte(l.src[l.pos:], '\n')
			if i < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += i + 1
		default:
			return
		}
	}
}

// Next returns the next token, or an error on malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	pos := l.pos
	if pos >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.src[pos]
	switch c {
	case '{':
		return l.emit(LBrace, 1), nil
	case '}':
		return l.emit(RBrace, 1), nil
	case '(':
		// NIL: '(' WS* ')'
		if tok, ok := l.tryCompound(')', NIL, "()"); ok {
			return tok, nil
		}
		return l.emit(LParen, 1), nil
	case ')':
		return l.emit(RParen, 1), nil
	case '[':
		// ANON: '[' WS* ']'
		if tok, ok := l.tryCompound(']', ANON, "[]"); ok {
			return tok, nil
		}
		return l.emit(LBracket, 1), nil
	case ']':
		return l.emit(RBracket, 1), nil
	case ';':
		return l.emit(Semicolon, 1), nil
	case ',':
		return l.emit(Comma, 1), nil
	case '=':
		return l.emit(Eq, 1), nil
	case '!':
		if l.peekByteAt(1) == '=' {
			return l.emit(Neq, 2), nil
		}
		return l.emit(Bang, 1), nil
	case '<':
		return l.lexLtOrIRI(), nil
	case '>':
		if l.peekByteAt(1) == '=' {
			return l.emit(Ge, 2), nil
		}
		return l.emit(Gt, 1), nil
	case '&':
		if l.peekByteAt(1) == '&' {
			return l.emit(AndAnd, 2), nil
		}
		return Token{}, l.errorf(pos, "unexpected '&'")
	case '|':
		if l.peekByteAt(1) == '|' {
			return l.emit(OrOr, 2), nil
		}
		return l.emit(Pipe, 1), nil
	case '+':
		return l.emit(Plus, 1), nil
	case '-':
		return l.emit(Minus, 1), nil
	case '*':
		return l.emit(Star, 1), nil
	case '/':
		return l.emit(Slash, 1), nil
	case '^':
		if l.peekByteAt(1) == '^' {
			return l.emit(CaretCaret, 2), nil
		}
		return l.emit(Caret, 1), nil
	case '?', '$':
		return l.lexVarOrQuestion()
	case '@':
		return l.lexLangTag()
	case '\'', '"':
		return l.lexString()
	case '_':
		if l.peekByteAt(1) == ':' {
			return l.lexBlankNode()
		}
		return l.lexIdentOrPName()
	case '.':
		// A dot may start a number (.5) or be the triple terminator.
		if isDigit(l.peekByteAt(1)) {
			return l.lexNumber(), nil
		}
		return l.emit(Dot, 1), nil
	}
	if isDigit(c) {
		return l.lexNumber(), nil
	}
	if c == ':' || c < utf8.RuneSelf && asciiClass[c]&cBase != 0 || c >= utf8.RuneSelf && isPNCharsBase(l.peekRune()) {
		return l.lexIdentOrPName()
	}
	return Token{}, l.errorf(pos, "unexpected character %q", string(rune(c)))
}

// tryCompound matches '(' WS* ')' style two-character tokens that may have
// interior whitespace (NIL and ANON).
func (l *Lexer) tryCompound(closer byte, kind TokenKind, text string) (Token, bool) {
	for i := l.pos + 1; i < len(l.src); i++ {
		switch l.src[i] {
		case ' ', '\t', '\r', '\n':
			continue
		case closer:
			t := Token{Kind: kind, Text: text, Pos: l.pos}
			l.pos = i + 1
			return t, true
		}
		return Token{}, false
	}
	return Token{}, false
}

func (l *Lexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// scanName returns the end of the run of name characters that starts at
// byte offset i: ASCII bytes whose asciiClass has a bit of class, and
// wider runes that satisfy wide.
func (l *Lexer) scanName(i int, class uint8, wide func(rune) bool) int {
	for i < len(l.src) {
		if c := l.src[i]; c < utf8.RuneSelf {
			if asciiClass[c]&class == 0 {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[i:])
		if !wide(r) {
			break
		}
		i += size
	}
	return i
}

// lexLtOrIRI disambiguates '<' between an IRIREF and the less-than operator.
// An IRIREF is a '<' followed by characters excluding control characters,
// space, and <>"{}|^` and backslash, terminated by '>'. Anything else is the
// operator.
func (l *Lexer) lexLtOrIRI() Token {
	if l.peekByteAt(1) == '=' {
		return l.emit(Le, 2)
	}
	for i := l.pos + 1; i < len(l.src); i++ {
		c := l.src[i]
		if c == '>' {
			t := Token{Kind: IRIRef, Text: l.src[l.pos+1 : i], Pos: l.pos}
			l.pos = i + 1
			return t
		}
		if c <= 0x20 || c == '<' || c == '"' || c == '{' || c == '}' || c == '|' || c == '^' || c == '`' || c == '\\' {
			break
		}
	}
	return l.emit(Lt, 1)
}

// lexVarOrQuestion lexes ?name and $name variables; a bare '?' (as used for
// the zero-or-one path modifier) is returned as a Question token.
func (l *Lexer) lexVarOrQuestion() (Token, error) {
	pos := l.pos
	i := pos + 1
	var start bool
	if i < len(l.src) && l.src[i] < utf8.RuneSelf {
		start = asciiClass[l.src[i]]&cVar != 0
		i++
	} else {
		r, size := utf8.DecodeRuneInString(l.src[i:])
		start = isVarNameStart(r)
		i += size
	}
	if !start {
		if l.src[pos] == '$' {
			return Token{}, l.errorf(pos, "'$' must start a variable name")
		}
		return l.emit(Question, 1), nil
	}
	i = l.scanName(i, cVar, isVarNameCont)
	l.pos = i
	return Token{Kind: Var, Text: l.src[pos+1 : i], Pos: pos}, nil
}

func (l *Lexer) lexLangTag() (Token, error) {
	pos := l.pos
	i := pos + 1
	start := i
	for i < len(l.src) && (isAlpha(l.src[i]) || (i > start && (isDigit(l.src[i]) || l.src[i] == '-'))) {
		i++
	}
	if i == start {
		return Token{}, l.errorf(pos, "expected language tag after '@'")
	}
	l.pos = i
	return Token{Kind: LangTag, Text: l.src[start:i], Pos: pos}, nil
}

func (l *Lexer) lexBlankNode() (Token, error) {
	pos := l.pos
	start := pos + 2 // skip "_:"
	i := l.scanName(start, cChars|cDot, isPNChars)
	// Trailing dots belong to the statement, not the label.
	for i > start && l.src[i-1] == '.' {
		i--
	}
	if i == start {
		return Token{}, l.errorf(pos, "expected blank node label after '_:'")
	}
	l.pos = i
	return Token{Kind: BlankNode, Text: l.src[start:i], Pos: pos}, nil
}

func (l *Lexer) lexNumber() Token {
	i := l.pos
	for i < len(l.src) && isDigit(l.src[i]) {
		i++
	}
	if i < len(l.src) && l.src[i] == '.' {
		j := i + 1
		for j < len(l.src) && isDigit(l.src[j]) {
			j++
		}
		// "1." followed by non-digit keeps the dot as triple terminator
		// only when no exponent follows; SPARQL allows "1." as a decimal,
		// but logs overwhelmingly use it as INTEGER DOT, so we only absorb
		// the dot when digits follow.
		if j > i+1 {
			i = j
		}
	}
	if i < len(l.src) && (l.src[i] == 'e' || l.src[i] == 'E') {
		j := i + 1
		if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
			j++
		}
		k := j
		for k < len(l.src) && isDigit(l.src[k]) {
			k++
		}
		if k > j {
			i = k
		}
	}
	return l.emit(NumberLit, i-l.pos)
}

// lexString lexes a short or long string literal. Its text is the slice
// of the source between the quotes until an escape sequence is met; from
// there on it is decoded into a copy.
func (l *Lexer) lexString() (Token, error) {
	pos := l.pos
	quote := l.src[pos]
	long := l.peekByteAt(1) == quote && l.peekByteAt(2) == quote
	start := pos + 1
	if long {
		start = pos + 3
	}
	var sb strings.Builder
	escaped := false
	for i := start; i < len(l.src); {
		c := l.src[i]
		if c == '\\' {
			if !escaped {
				sb.WriteString(l.src[start:i])
				escaped = true
			}
			n, err := l.unescape(&sb, pos, i)
			if err != nil {
				l.pos = i
				return Token{}, err
			}
			i += n
			continue
		}
		closer := 0 // the length of the closing quote at i
		switch {
		case c != quote:
			if !long && (c == '\n' || c == '\r') {
				l.pos = i
				return Token{}, l.errorf(pos, "newline in string literal")
			}
		case !long:
			closer = 1
		case i+2 < len(l.src) && l.src[i+1] == quote && l.src[i+2] == quote:
			closer = 3
		}
		if closer > 0 {
			l.pos = i + closer
			text := l.src[start:i]
			if escaped {
				text = sb.String()
			}
			return Token{Kind: StringLit, Text: text, Pos: pos}, nil
		}
		if escaped {
			sb.WriteByte(c)
		}
		i++
	}
	l.pos = len(l.src)
	return Token{}, l.errorf(pos, "unterminated string literal")
}

// unescape decodes the escape sequence at byte offset i of the string
// literal that starts at pos into sb, and returns its length.
func (l *Lexer) unescape(sb *strings.Builder, pos, i int) (int, error) {
	var esc byte
	if i+1 < len(l.src) {
		esc = l.src[i+1]
	}
	switch esc {
	case 't':
		sb.WriteByte('\t')
	case 'b':
		sb.WriteByte('\b')
	case 'n':
		sb.WriteByte('\n')
	case 'r':
		sb.WriteByte('\r')
	case 'f':
		sb.WriteByte('\f')
	case '"', '\'', '\\':
		sb.WriteByte(esc)
	case 'u', 'U':
		n := 4
		if esc == 'U' {
			n = 8
		}
		if i+2+n > len(l.src) {
			return 0, l.errorf(pos, "truncated unicode escape")
		}
		hex := l.src[i+2 : i+2+n]
		v, err := parseHex(hex)
		if err != nil {
			return 0, l.errorf(pos, "bad unicode escape \\%c%s", esc, hex)
		}
		sb.WriteRune(rune(v))
		return 2 + n, nil
	default:
		return 0, l.errorf(pos, "bad escape sequence \\%c", esc)
	}
	return 2, nil
}

// lexIdentOrPName lexes bare identifiers (keywords, boolean literals,
// builtin names) and prefixed names such as foaf:name or rdf: .
func (l *Lexer) lexIdentOrPName() (Token, error) {
	pos := l.pos
	// Prefix part: PN_CHARS_BASE (PN_CHARS | '.')* — may be empty (":x").
	i := pos
	if c := l.src[i]; c < utf8.RuneSelf {
		if asciiClass[c]&cBase != 0 {
			i = l.scanName(i+1, cChars|cDot, isPNChars)
		}
	} else if r, size := utf8.DecodeRuneInString(l.src[i:]); isPNCharsBase(r) {
		i = l.scanName(i+size, cChars|cDot, isPNChars)
	}
	// Trailing dots are statement terminators, not name parts.
	for i > pos && l.src[i-1] == '.' {
		i--
	}
	if i >= len(l.src) || l.src[i] != ':' {
		// Bare identifier (keyword, function name, or 'a').
		if i == pos {
			return Token{}, l.errorf(pos, "unexpected character %q", string(l.peekRune()))
		}
		l.pos = i
		text := l.src[pos:i]
		if text == "a" {
			return Token{Kind: A, Text: "a", Pos: pos}, nil
		}
		return Token{Kind: Ident, Text: text, Pos: pos}, nil
	}
	// PName: consume ':' and local part.
	i++ // ':'
	start := i
scan:
	for i < len(l.src) {
		// Local names allow PN_CHARS, '.', ':', '%XX' escapes and
		// backslash escapes of punctuation (PN_LOCAL_ESC); the first
		// character may not be '.'.
		c := l.src[i]
		switch {
		case c == '%' && i+2 < len(l.src) && isHex(l.src[i+1]) && isHex(l.src[i+2]):
			i += 3
		case c == '\\' && i+1 < len(l.src) && isLocalEsc(l.src[i+1]):
			i += 2
		case c < utf8.RuneSelf:
			class := cChars | cColon
			if i > start {
				class |= cDot
			}
			if asciiClass[c]&class == 0 {
				break scan
			}
			i++
		default:
			// A first rune whose low seven bits spell an ASCII digit is
			// admitted too.
			r, size := utf8.DecodeRuneInString(l.src[i:])
			if !isPNChars(r) && (i > start || !isDigit(byte(r&0x7f))) {
				break scan
			}
			i += size
		}
	}
	for i > start && l.src[i-1] == '.' {
		i--
	}
	l.pos = i
	return Token{Kind: PName, Text: l.src[pos:i], Pos: pos}, nil
}

// Character class helpers.

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlpha(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

func isHex(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

func isLocalEsc(c byte) bool {
	switch c {
	case '_', '~', '.', '-', '!', '$', '&', '\'', '(', ')', '*', '+', ',', ';', '=', '/', '?', '#', '@', '%':
		return true
	}
	return false
}

// ASCII character classes of the name productions, as the bits of
// asciiClass.
const (
	cBase  uint8 = 1 << iota // PN_CHARS_BASE: a letter
	cChars                   // PN_CHARS: a letter, a digit, '_' or '-'
	cVar                     // VARNAME: a letter, a digit or '_'
	cDot                     // '.'
	cColon                   // ':'
)

// asciiClass classifies each ASCII byte for the name scanners. It agrees
// with isPNCharsBase, isPNChars and isVarNameStart/isVarNameCont on every
// ASCII rune; a byte >= 0x80 is decoded and tested with those instead.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = cBase | cChars | cVar
		t[c-'a'+'A'] = cBase | cChars | cVar
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = cChars | cVar
	}
	t['_'] = cChars | cVar
	t['-'] = cChars
	t['.'] = cDot
	t[':'] = cColon
	return t
}()

func isPNCharsBase(r rune) bool {
	if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
		return true
	}
	if r < 0x80 {
		return false
	}
	return unicode.IsLetter(r)
}

func isPNChars(r rune) bool {
	if isPNCharsBase(r) || r == '_' || r == '-' {
		return true
	}
	if r >= '0' && r <= '9' {
		return true
	}
	if r == 0xB7 {
		return true
	}
	return r >= 0x300 && r <= 0x36F || unicode.IsDigit(r)
}

func isVarNameStart(r rune) bool {
	return isPNCharsBase(r) || r == '_' || (r >= '0' && r <= '9')
}

func isVarNameCont(r rune) bool {
	return isVarNameStart(r) || r == 0xB7 || (r >= 0x300 && r <= 0x36F) || unicode.IsDigit(r)
}

func parseHex(s string) (int64, error) {
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, &SyntaxError{Msg: "bad hex digit"}
		}
		v = v<<4 | d
	}
	return v, nil
}
