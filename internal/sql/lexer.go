// Package sql implements the per-tenant SQL layer (§3.1 of the paper): a
// lexer/parser for a practical SQL subset, a catalog of table descriptors
// persisted in the tenant's keyspace, a planner/executor that compiles
// statements into KV batches through the transaction layer, sessions with
// serialization for connection migration (§4.2.4), and the multi-region
// system database (§3.2.5).
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case-folded lower
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "CREATE": true, "TABLE": true, "INDEX": true, "ON": true,
	"PRIMARY": true, "KEY": true, "INT": true, "STRING": true, "FLOAT": true,
	"BOOL": true, "UPDATE": true, "SET": true, "DELETE": true, "AND": true,
	"OR": true, "NOT": true, "NULL": true, "TRUE": true, "FALSE": true,
	"ORDER": true, "BY": true, "LIMIT": true, "GROUP": true, "JOIN": true,
	"AS": true, "ASC": true, "DESC": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "DROP": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "DISTINCT": true, "SHOW": true, "TABLES": true,
}

// lex splits input into tokens.
func lex(input string) ([]token, error) {
	// Sized once: statements average a token per four bytes or fewer, and a
	// 32-byte token grown from nil is six reallocations for a short SELECT.
	toks := make([]token, 0, len(input)/4+4)
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (isIdentChar(rune(input[i]))) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tokKeyword, text: up})
			} else {
				toks = append(toks, token{kind: tokIdent, text: strings.ToLower(word)})
			}
		case unicode.IsDigit(c) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(input[i])) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i]})
		case c == '\'':
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at %d", i)
			}
			toks = append(toks, token{kind: tokString, text: sb.String()})
		case strings.ContainsRune("(),*;=+-/<>.", c):
			// Multi-char operators.
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "!=" || two == "<>" {
					toks = append(toks, token{kind: tokSymbol, text: two})
					i += 2
					continue
				}
			}
			toks = append(toks, token{kind: tokSymbol, text: string(c)})
			i++
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: "!="})
				i += 2
				continue
			}
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		case c == '$':
			// Placeholder, e.g. $1.
			start := i
			i++
			for i < n && unicode.IsDigit(rune(input[i])) {
				i++
			}
			if i == start+1 {
				return nil, fmt.Errorf("sql: bare $ at %d", start)
			}
			toks = append(toks, token{kind: tokSymbol, text: input[start:i]})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}
