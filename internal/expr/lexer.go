// Package expr implements the user-defined map language of the
// spreadsheet: small, pure expressions over row values used to derive
// new columns and to filter rows (paper §5.6 "User-defined maps"). It
// substitutes for Hillview's server-side JavaScript (Nashorn) with a
// deterministic, sandboxed evaluator: no loops, no state, no I/O — a
// per-row function that the engine can recompute at any time, which is
// exactly the property the soft-state memory design relies on.
//
// Expressions are written over column names, e.g.
//
//	DepDelay - ArrDelay
//	Origin == "SFO" && DepDelay > 30
//	year(FlightDate) * 100 + month(FlightDate)
//
// Booleans are represented as int 0/1 (the Value type has no bool kind);
// any non-zero number is truthy. Missing values propagate through
// operators and functions, except isMissing and coalesce.
//
// # Typed evaluation
//
// Bind compiles each AST node once into a typed evaluator for the kind
// it declares: func(row) (float64, bool) for doubles, func(row) (int64,
// bool) for ints and dates, func(row) (string, bool) for strings, where
// the bool reports a missing value. Column references read the stored
// columns' backing slices and missing masks, literals are constants, and
// operators stay typed end to end, so a filter builds no table.Value per
// row. Only two boundaries box: builtin calls, whose arguments are boxed
// into the builtin's evaluator, and Compiled.Value, which backs derived
// columns.
//
// The kind invariant: every row of a Compiled evaluates to its declared
// Kind. Bind enforces it by checking argument kinds: numeric builtins
// reject strings, substr positions must be ints, and min, max and the
// branches of if and coalesce must be all numbers or all strings.
// Numbers of different kinds promote (an int chosen where the result is
// a double converts), and a kind error is a bind error.
package expr

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokNumber
	tokString
	tokIdent
	tokOp     // operators and punctuation
	tokLParen // (
	tokRParen // )
	tokComma
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer splits expression source into tokens.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber()
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c == '(':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokLParen, text: "(", pos: start})
		case c == ')':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokRParen, text: ")", pos: start})
		case c == ',':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokComma, text: ",", pos: start})
		default:
			op := l.lexOp()
			if op == "" {
				return nil, fmt.Errorf("expr: unexpected character %q at %d", c, start)
			}
			l.tokens = append(l.tokens, token{kind: tokOp, text: op, pos: start})
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
			return
		}
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return fmt.Errorf("expr: unterminated escape at %d", start)
			}
			switch e := l.src[l.pos]; e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"', '\'':
				sb.WriteByte(e)
			default:
				return fmt.Errorf("expr: unknown escape \\%c at %d", e, l.pos)
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("expr: unterminated string at %d", start)
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

// lexOp recognizes the longest operator at the cursor.
func (l *lexer) lexOp() string {
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||":
		l.pos += 2
		return two
	}
	switch c := l.src[l.pos]; c {
	case '+', '-', '*', '/', '%', '<', '>', '!':
		l.pos++
		return string(c)
	}
	return ""
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
