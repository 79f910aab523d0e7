package scenarioio

import (
	"fmt"
	"io"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The scanner reads a document through a window that starts at
// minWindow bytes and doubles only while a single token does not fit,
// up to maxWindow. Consumed bytes are slid out before each refill, so a
// document of any size streams through O(window) memory.
const (
	minWindow = 32 << 10
	maxWindow = 1 << 20
)

// scanner tokenizes JSON for the fixed scenario schema. Token slices it
// returns point into the window and stay valid only until the next read.
type scanner struct {
	r       io.Reader
	buf     []byte
	i, n    int   // next unread byte; end of valid bytes
	base    int64 // document offset of buf[0]
	eof     bool
	readErr error  // first read error other than io.EOF
	scratch []byte // unescaped string contents
}

func newScanner(r io.Reader) *scanner {
	return &scanner{r: r, buf: make([]byte, minWindow)}
}

// more reads at least one byte past s.n, first sliding the window so the
// byte at *keep moves to the front (*keep is updated). It reports false
// at end of input or on a read error.
func (s *scanner) more(keep *int) bool {
	if s.eof {
		return false
	}
	if k := *keep; k > 0 {
		copy(s.buf, s.buf[k:s.n])
		s.n -= k
		s.i -= k
		s.base += int64(k)
		*keep = 0
	}
	if s.n == len(s.buf) {
		if len(s.buf) >= maxWindow {
			s.readErr = fmt.Errorf("token longer than %d bytes", maxWindow)
			s.eof = true
			return false
		}
		grown := make([]byte, 2*len(s.buf))
		copy(grown, s.buf[:s.n])
		s.buf = grown
	}
	for {
		m, err := s.r.Read(s.buf[s.n:])
		s.n += m
		if err != nil {
			s.eof = true
			if err != io.EOF {
				s.readErr = err
			}
			return m > 0
		}
		if m > 0 {
			return true
		}
	}
}

// offset is the document offset of the next unread byte.
func (s *scanner) offset() int64 { return s.base + int64(s.i) }

// errorf builds a syntax or type error at the current offset.
func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at byte %d", fmt.Sprintf(format, args...), s.offset())
}

// unexpected reports what was found where want was expected.
func (s *scanner) unexpected(want string) error {
	if s.i < s.n {
		return s.errorf("expected %s, found %q", want, s.buf[s.i])
	}
	if s.readErr != nil {
		return s.errorf("expected %s: %v", want, s.readErr)
	}
	return s.errorf("expected %s, found end of input", want)
}

// peek skips whitespace and returns the next byte without consuming it;
// 0 means end of input when s.i == s.n.
func (s *scanner) peek() byte {
	for {
		buf, i := s.buf[:s.n], s.i
		for i < len(buf) && space[buf[i]] {
			i++
		}
		s.i = i
		if i < len(buf) {
			return buf[i]
		}
		if !s.more(&s.i) {
			return 0
		}
	}
}

// space marks JSON's four whitespace bytes.
var space = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// atEnd reports whether only whitespace remains.
func (s *scanner) atEnd() bool {
	s.peek()
	return s.i >= s.n && s.readErr == nil
}

// null consumes a null literal if one comes next.
func (s *scanner) null() (bool, error) {
	if s.peek() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

// literal consumes the keyword lit (true, false or null).
func (s *scanner) literal(lit string) error {
	start := s.i
	for s.n-start < len(lit) {
		if !s.more(&start) {
			break
		}
	}
	s.i = start
	if s.n-start < len(lit) || string(s.buf[start:start+len(lit)]) != lit {
		return s.unexpected(lit)
	}
	s.i += len(lit)
	return nil
}

// numByte marks the bytes a JSON number can contain.
var numByte = [256]bool{
	'0': true, '1': true, '2': true, '3': true, '4': true,
	'5': true, '6': true, '7': true, '8': true, '9': true,
	'-': true, '+': true, '.': true, 'e': true, 'E': true,
}

// number scans one number token and checks it against the JSON grammar.
func (s *scanner) number() ([]byte, error) {
	if c := s.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, s.unexpected("number")
	}
	start := s.i
	for {
		buf, i := s.buf[:s.n], s.i
		for i < len(buf) && numByte[buf[i]] {
			i++
		}
		s.i = i
		if i < len(buf) || !s.more(&start) {
			break
		}
	}
	tok := s.buf[start:s.i]
	if !validNumber(tok) {
		s.i = start
		return nil, s.errorf("invalid number %q", tok)
	}
	return tok, nil
}

// validNumber reports whether b matches
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func validNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || b[i+1] < '0' || b[i+1] > '9' {
			return false
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return false
		}
		i = digits(b, i)
	}
	return i == len(b)
}

func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number into a float64 exactly as encoding/json does.
func (s *scanner) float() (float64, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errorf("number %s out of float64 range", tok)
	}
	return f, nil
}

// integer reads a number into an integer of bits bits exactly as
// encoding/json does: fractions and exponents are rejected.
func (s *scanner) integer(bits int) (int64, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, s.errorf("number %s is not an int%d", tok, bits)
	}
	return v, nil
}

func (s *scanner) int() (int, error) {
	v, err := s.integer(strconv.IntSize)
	return int(v), err
}

func (s *scanner) bool() (bool, error) {
	if s.peek() == 't' {
		return true, s.literal("true")
	}
	if s.i < s.n && s.buf[s.i] == 'f' {
		return false, s.literal("false")
	}
	return false, s.unexpected("true or false")
}

// str scans one string and returns its unescaped contents.
func (s *scanner) str() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.unexpected("string")
	}
	s.i++
	start, escaped := s.i, false
	for {
	scan:
		for s.i < s.n {
			switch c := s.buf[s.i]; {
			case c == '"':
				tok := s.buf[start:s.i]
				s.i++
				if escaped {
					return s.unescape(tok, start)
				}
				return tok, nil
			case c == '\\':
				if s.i+1 >= s.n {
					break scan // the escaped byte is not in the window yet
				}
				escaped = true
				s.i += 2
			case c < 0x20:
				return nil, s.errorf("control character %q in string", c)
			default:
				s.i++
			}
		}
		if !s.more(&start) {
			s.i = s.n
			return nil, s.unexpected("closing quote")
		}
	}
}

// unescape decodes the escapes of a string body that starts at window
// index at, the way encoding/json does, into s.scratch.
func (s *scanner) unescape(b []byte, at int) ([]byte, error) {
	out := s.scratch[:0]
	for i := 0; i < len(b); i++ {
		if b[i] != '\\' {
			out = append(out, b[i])
			continue
		}
		i++
		switch b[i] {
		case '"', '\\', '/':
			out = append(out, b[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := hex4(b[i+1:])
			if !ok {
				s.i = at + i
				return nil, s.errorf("invalid \\u escape")
			}
			i += 4
			if utf16.IsSurrogate(r) {
				if lo, ok := hex4(b[min(i+3, len(b)):]); ok && i+2 < len(b) && b[i+1] == '\\' && b[i+2] == 'u' {
					if dec := utf16.DecodeRune(r, lo); dec != utf8.RuneError {
						r = dec
						i += 6
						out = utf8.AppendRune(out, r)
						continue
					}
				}
				r = utf8.RuneError
			}
			out = utf8.AppendRune(out, r)
		default:
			s.i = at + i - 1
			return nil, s.errorf("invalid escape %q", b[i-1:i+1])
		}
	}
	s.scratch = out
	return out, nil
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// elemError is an error already named by its array element ("task 41"),
// so enclosing objects do not prefix their keys to it.
type elemError struct{ error }

func (e elemError) Unwrap() error { return e.error }

// object walks one object whose keys must be among names, each at most
// once. value is called with the key's index after the colon and must
// consume the value. Keys usually arrive in schema order, so the key
// after the previous one is matched first, in place.
func (s *scanner) object(names []string, value func(k int) error) error {
	if s.peek() != '{' {
		return s.unexpected("object")
	}
	s.i++
	if s.peek() == '}' {
		s.i++
		return nil
	}
	var seen uint32
	k := -1
	for {
		if k++; k >= len(names) || !s.quoted(names[k]) {
			key, err := s.str()
			if err != nil {
				return err
			}
			if k = lookup(names, key); k < 0 {
				return s.errorf("unknown field %q", key)
			}
		}
		if seen&(1<<k) != 0 {
			return s.errorf("repeated field %q", names[k])
		}
		seen |= 1 << k
		if s.peek() != ':' {
			return s.unexpected("':'")
		}
		s.i++
		if err := value(k); err != nil {
			if _, ok := err.(elemError); ok {
				return err
			}
			return fmt.Errorf("%s: %w", names[k], err)
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return s.unexpected("',' or '}'")
		}
	}
}

// quoted consumes the string "name" if it comes next, unescaped and
// whole in the window: the fast path for keys in schema order.
func (s *scanner) quoted(name string) bool {
	if s.peek() != '"' {
		return false
	}
	end := s.i + 1 + len(name)
	if end >= s.n || s.buf[end] != '"' || string(s.buf[s.i+1:end]) != name {
		return false
	}
	s.i = end + 1
	return true
}

func lookup(names []string, key []byte) int {
	for k, name := range names {
		if string(key) == name {
			return k
		}
	}
	return -1
}

// array walks one array, or null (read as empty), calling elem with each
// element's index; elem must consume the element.
func (s *scanner) array(elem func(i int) error) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	if s.peek() != '[' {
		return s.unexpected("array")
	}
	s.i++
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return s.unexpected("',' or ']'")
		}
	}
}

// elements walks an array of objects, naming each element's errors
// "<what> <index>".
func (s *scanner) elements(what string, elem func(i int) error) error {
	return s.array(func(i int) error {
		if err := elem(i); err != nil {
			return elemError{fmt.Errorf("%s %d: %w", what, i, err)}
		}
		return nil
	})
}

// ints reads an array of ints (null reads as empty).
func (s *scanner) ints(each func(v int)) error {
	return s.array(func(int) error {
		v, err := s.int()
		if err == nil {
			each(v)
		}
		return err
	})
}
