package server

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"xst/internal/core"
	"xst/internal/table"
)

// appendString appends s as json.Marshal quotes it: HTML-safe, with the
// short escapes for \b \f \n \r \t. Non-ASCII text goes through
// encoding/json, which owns the UTF-8 rules (invalid bytes, U+2028).
func appendString[T string | []byte](dst []byte, s T) []byte {
	mark, start := len(dst), 0
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			b, _ := json.Marshal(string(s)) // a string always marshals
			return append(dst[:mark], b...)
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		dst = append(dst, s[start:i]...)
		if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
			dst = append(dst, '\\', `"\bfnrt`[k])
		} else {
			dst = hex.AppendEncode(append(dst, `\u00`...), []byte{c})
		}
		start = i + 1
	}
	return append(append(dst, s[start:]...), '"')
}

// appendStrings appends `"key":[…],` for a non-empty ss; key ends in '['.
func appendStrings(dst []byte, key string, ss []string) []byte {
	dst = append(dst, key...)
	for _, s := range ss {
		dst = append(appendString(dst, s), ',')
	}
	dst[len(dst)-1] = ']' // over the last comma
	return append(dst, ',')
}

// appendID opens a line with its (omitempty) id field.
func appendID(dst []byte, id uint64) []byte {
	dst = append(dst, '{')
	if id != 0 {
		dst = append(strconv.AppendUint(append(dst, `"id":`...), id, 10), ',')
	}
	return dst
}

// appendRequest appends req's wire line: json.Marshal(req) and '\n'.
func appendRequest(dst []byte, r *Request) []byte {
	dst = appendString(append(appendID(dst, r.ID), `"stmt":`...), r.Stmt)
	if r.TimeoutMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_ms":`...), r.TimeoutMS, 10)
	}
	if r.Wire {
		dst = append(dst, `,"wire":true`...)
	}
	if r.TraceID != "" {
		dst = appendString(append(dst, `,"trace_id":`...), r.TraceID)
	}
	return append(dst, '}', '\n')
}

// appendResponse appends resp's wire line: json.Marshal(resp) and '\n'.
// A response carrying a span tree goes through encoding/json.
func appendResponse(dst []byte, r *Response) []byte {
	if r.Trace != nil {
		b, err := json.Marshal(*r) // a copy, so the caller's r stays off the heap
		if err != nil {
			b = []byte(`{"error":"server: response encoding failed"}`)
		}
		return append(append(dst, b...), '\n')
	}
	dst = appendID(dst, r.ID)
	if r.Result != "" {
		dst = append(appendString(append(dst, `"result":`...), r.Result), ',')
	}
	if r.Error != "" {
		dst = append(appendString(append(dst, `"error":`...), r.Error), ',')
	}
	if len(r.Batch) > 0 {
		dst = appendStrings(dst, `"batch":[`, r.Batch)
	}
	if r.More {
		dst = append(dst, `"more":true,`...)
	}
	if r.Rows != 0 {
		dst = append(strconv.AppendInt(append(dst, `"rows":`...), int64(r.Rows), 10), ',')
	}
	if len(r.Schema) > 0 {
		dst = appendStrings(dst, `"schema":[`, r.Schema)
	}
	return append(strconv.AppendInt(append(dst, `"elapsed_us":`...), r.ElapsedUS, 10), '}', '\n')
}

// batchLine writes one streamed batch into sess.line: the bytes of
// json.Marshal(Response{ID: id, Batch: rows, More: true}) and '\n'.
// Each row renders into sess.row (the table codec in base64 when wire
// is set, the tuple notation otherwise) and is quoted from there, so no
// row becomes a string.
func (sess *session) batchLine(id uint64, batch []table.Row, wire bool) {
	b := appendID(sess.line[:0], id)
	if len(batch) > 0 {
		b = append(b, `"batch":[`...)
		for _, r := range batch {
			if wire {
				sess.enc = table.EncodeRow(sess.enc[:0], r)
				sess.row = base64.StdEncoding.AppendEncode(sess.row[:0], sess.enc)
			} else {
				sess.row = core.AppendTuple(sess.row[:0], r)
			}
			b = append(appendString(b, sess.row), ',')
		}
		b[len(b)-1] = ']'
		b = append(b, ',')
	}
	sess.line = append(b, `"more":true,"elapsed_us":0}`+"\n"...)
}

// scanner reads the subset of JSON the encoders write: one object of
// distinct known keys whose values are ASCII strings, string arrays,
// booleans and integers of at most 18 digits. It reports false on
// anything else, and the caller hands the line to encoding/json. A
// line's strings are unescaped end to end into text and become one Go
// string; a scanner is reused from line to line to keep that space.
type scanner struct {
	s    []byte
	i    int
	text []byte
	ends []int // string j is text[ends[j]:ends[j+1]]
	seen uint  // bit k: keys[k] was read
	// Per key: its first string, and its number, boolean or list length.
	first [8]int
	val   [8]uint64
}

func (l *scanner) ws() {
	for l.i < len(l.s) && strings.IndexByte(" \t\n\r", l.s[l.i]) >= 0 {
		l.i++
	}
}

func (l *scanner) eat(c byte) bool {
	l.ws()
	if l.i < len(l.s) && l.s[l.i] == c {
		l.i++
		return true
	}
	return false
}

// object reads the whole line as one object. kinds[k] is the kind of
// keys[k]'s value: s(tring), l(ist of strings), b(oolean) or n(umber).
func (l *scanner) object(line []byte, keys []string, kinds string) bool {
	*l = scanner{s: line, text: l.text[:0], ends: append(l.ends[:0], 0)}
	if !l.eat('{') {
		return false
	}
	for !l.eat('}') {
		if l.seen != 0 && !l.eat(',') || !l.eat('"') {
			return false
		}
		name, rest, found := bytes.Cut(l.s[l.i:], []byte(`"`))
		l.i = len(l.s) - len(rest)
		k := 0
		for k < len(keys) && string(name) != keys[k] {
			k++
		}
		if !found || k == len(keys) || l.seen&(1<<k) != 0 || !l.eat(':') || !l.value(kinds[k], k) {
			return false // a repeated key keeps encoding/json's rules
		}
		l.seen |= 1 << k
	}
	l.ws()
	return l.i == len(l.s)
}

func (l *scanner) value(kind byte, k int) bool {
	l.first[k] = len(l.ends) - 1
	switch kind {
	case 's':
		return l.str()
	case 'l':
		if !l.eat('[') {
			return false
		}
		for ; !l.eat(']'); l.val[k]++ {
			if l.val[k] > 0 && !l.eat(',') || !l.str() {
				return false
			}
		}
		return true
	case 'b':
		l.ws()
		for v, w := range [...]string{"false", "true"} {
			if bytes.HasPrefix(l.s[l.i:], []byte(w)) {
				l.val[k], l.i = uint64(v), l.i+len(w)
				return true
			}
		}
		return false
	}
	l.ws()
	start := l.i
	for ; l.i < len(l.s) && '0' <= l.s[l.i] && l.s[l.i] <= '9'; l.i++ {
		l.val[k] = l.val[k]*10 + uint64(l.s[l.i]-'0')
	}
	// At most 18 digits cannot overflow; a sign, fraction or exponent
	// fails the check after the value.
	d := l.i - start
	return d > 0 && d <= 18 && (d == 1 || l.s[start] != '0')
}

// str reads one string of printable ASCII and the escapes \" \\ \/ \b
// \f \n \r \t and \u0000–\u007f.
func (l *scanner) str() bool {
	var err error
	if !l.eat('"') {
		return false
	}
	// A string inside an object never ends the line, so l.i+1 is in range.
	for start := l.i; l.i+1 < len(l.s); {
		c := l.s[l.i]
		if c == '"' {
			l.text = append(l.text, l.s[start:l.i]...)
			l.ends = append(l.ends, len(l.text))
			l.i++
			return true
		}
		if c < 0x20 || c >= utf8.RuneSelf {
			return false
		}
		if c != '\\' {
			l.i++
			continue
		}
		l.text = append(l.text, l.s[start:l.i]...)
		if k := strings.IndexByte(`"\/bfnrt`, l.s[l.i+1]); k >= 0 {
			l.text = append(l.text, "\"\\/\b\f\n\r\t"[k])
			l.i += 2
		} else if l.i+6 > len(l.s) || string(l.s[l.i:l.i+4]) != `\u00` || l.s[l.i+4] >= '8' {
			return false
		} else if l.text, err = hex.AppendDecode(l.text, l.s[l.i+4:l.i+6]); err != nil {
			return false
		} else {
			l.i += 6
		}
		start = l.i
	}
	return false
}

// field is the string read for keys[k], and list the array; all is
// text as one string.
func (l *scanner) field(all string, k int) string {
	if j := l.first[k]; l.seen&(1<<k) != 0 {
		return all[l.ends[j]:l.ends[j+1]]
	}
	return ""
}

func (l *scanner) list(all string, k int) []string {
	if l.seen&(1<<k) == 0 {
		return nil
	}
	out := make([]string, l.val[k])
	for i := range out {
		j := l.first[k] + i
		out[i] = all[l.ends[j]:l.ends[j+1]]
	}
	return out
}

// The keys of the two line types and the kinds of their values.
var (
	requestKeys  = []string{"id", "stmt", "timeout_ms", "wire", "trace_id"}
	responseKeys = []string{"id", "result", "error", "batch", "more", "rows", "schema", "elapsed_us"}
)

const requestKinds, responseKinds = "nsnbs", "nsslbnln"

// request decodes one request line as ParseRequest documents.
func (l *scanner) request(line []byte) Request {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] != '{' {
		return Request{Stmt: string(line)}
	}
	var r Request
	if l.object(line, requestKeys, requestKinds) {
		all := string(l.text)
		r = Request{ID: l.val[0], Stmt: l.field(all, 1), TimeoutMS: int64(l.val[2]),
			Wire: l.val[3] == 1, TraceID: l.field(all, 4)}
	} else if slow := new(Request); json.Unmarshal(line, slow) == nil {
		r = *slow // decoded apart, so r stays off the heap
	}
	if r.Stmt == "" {
		return Request{Stmt: string(line)}
	}
	return r
}

// response decodes one response line as json.Unmarshal into a zero
// Response does. Result, Error and the Batch and Schema entries are
// substrings of one string.
func (l *scanner) response(line []byte) (Response, error) {
	if !l.object(line, responseKeys, responseKinds) {
		var slow Response
		err := json.Unmarshal(line, &slow)
		return slow, err
	}
	all := string(l.text)
	return Response{ID: l.val[0], Result: l.field(all, 1), Error: l.field(all, 2), Batch: l.list(all, 3),
		More: l.val[4] == 1, Rows: int(l.val[5]), Schema: l.list(all, 6), ElapsedUS: int64(l.val[7])}, nil
}
