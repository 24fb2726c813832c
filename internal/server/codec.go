package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"xst/internal/core"
	"xst/internal/exec"
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

// A batch line's bound in bytes, newline included, and its end after the last row.
const maxLine, lineTail = 64 << 10, `],"more":true,"elapsed_us":0}` + "\n"

// emit is a query's sink (sess.sink). It appends b's rows to the open
// batch line as json.Marshal(Response{ID: sess.id, Batch: rows, More:
// true}) writes them: each row's tuple notation, or its table codec
// image in base64 when sess.wire is set, rendered from the columns into
// sess.row (via sess.enc), so no value is boxed. A line is written once
// it holds exec.MaxBatchRows rows, or before the row that would take it
// past maxLine bytes; a longer row has a line to itself.
func (sess *session) emit(b *table.Batch) error {
	sess.rows += b.Len
	sess.lq.addRows(b.Len)
	sess.s.m.RowsStreamed.Add(uint64(b.Len))
	for i := 0; i < b.Len; i++ {
		if sess.wire {
			sess.enc = b.EncodeRow(sess.enc[:0], i)
			sess.row = base64.StdEncoding.AppendEncode(sess.row[:0], sess.enc)
		} else {
			sess.row = appendRow(sess.row[:0], b, i)
		}
		if sess.lineRows == 0 {
			sess.line = append(appendID(sess.line[:0], sess.id), `"batch":[`...)
		}
		mark := len(sess.line)
		sess.line = append(appendString(sess.line, sess.row), ',')
		if sess.lineRows > 0 && len(sess.line)+len(lineTail)-1 > maxLine {
			sess.line, i = sess.line[:mark], i-1 // row i opens the next line
		} else if sess.lineRows++; sess.lineRows < exec.MaxBatchRows {
			continue
		}
		if err := sess.write(sess.closeLine()); err != nil {
			return err
		}
	}
	return nil
}

// closeLine closes the open batch line, returning the buffer holding
// it, or the empty buffer when none is open.
func (sess *session) closeLine() []byte {
	if sess.lineRows == 0 {
		return sess.line[:0]
	}
	sess.lineRows = 0
	sess.s.m.BatchesStreamed.Inc()
	return append(sess.line[:len(sess.line)-1], lineTail...)
}

// DecodeWireRows decodes the rows of a wire-mode batch line, each of
// arity columns, through two buffers the call reuses: table.DecodeRow
// copies what a row keeps. (A .load chunk's rows stay bytes.)
func DecodeWireRows(b64s []string, arity int) ([]table.Row, error) {
	rows := make([]table.Row, 0, len(b64s))
	var src, raw []byte
	for _, b64 := range b64s {
		src = append(src[:0], b64...)
		var err error
		if raw, err = base64.StdEncoding.AppendDecode(raw[:0], src); err != nil {
			return nil, fmt.Errorf("bad wire row: %v", err)
		}
		r, err := table.DecodeRow(raw)
		if err != nil {
			return nil, fmt.Errorf("bad wire row: %v", err)
		}
		if len(r) != arity {
			return nil, fmt.Errorf("wire row arity %d, want %d", len(r), arity)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// wireRecords holds the buffers a session's next .load chunk reuses:
// the payload, one row decoded from base64, and a record per row.
type wireRecords struct {
	payload, raw []byte
	b            table.Batch
	recs         [][]byte
}

// check lays each base64 row out canonically (Batch.AppendRecord),
// failing where DecodeWireRows fails on the same rows, with its error.
func (w *wireRecords) check(rows [][]byte, arity int) ([][]byte, error) {
	w.recs = append(w.recs, make([][]byte, max(0, len(rows)-len(w.recs)))...)
	recs := w.recs[:len(rows)]
	for i, b64 := range rows {
		var err error
		if w.raw, err = base64.StdEncoding.AppendDecode(w.raw[:0], b64); err != nil {
			return nil, fmt.Errorf("bad wire row: %v", err)
		}
		if recs[i], err = w.b.AppendRecord(recs[i][:0], w.raw, arity); errors.Is(err, table.ErrSchema) {
			n, _ := binary.Uvarint(w.raw)
			return nil, fmt.Errorf("wire row arity %d, want %d", n, arity)
		} else if err != nil {
			return nil, fmt.Errorf("bad wire row: %v", err)
		}
	}
	return recs, nil
}

// appendRow appends the tuple notation of row i of b, written from the
// columns: byte for byte core.AppendTuple of the row boxed.
func appendRow(dst []byte, b *table.Batch, i int) []byte {
	if len(b.Cols) == 0 {
		return append(dst, '{', '}')
	}
	dst = append(dst, '<')
	for c := range b.Cols {
		if c > 0 {
			dst = append(dst, ',')
		}
		switch col := &b.Cols[c]; col.Kind {
		case table.ColInt:
			dst = strconv.AppendInt(dst, col.Ints[i], 10)
		case table.ColStr:
			dst = appendQuoted(dst, col.Str(i))
		default:
			dst = core.AppendValue(dst, col.Value(i))
		}
	}
	return append(dst, '>')
}

// appendQuoted is strconv.AppendQuote(dst, string(s)) without the copy
// into a string: s is quoted in pieces of at most 32 bytes, which the
// conversion holds on the stack, each cut before a rune start so a
// rune is escaped whole, and each piece's own quotes are dropped.
func appendQuoted(dst, s []byte) []byte {
	dst = append(dst, '"')
	for len(s) > 0 {
		k := min(len(s), 32)
		for j := k; k < len(s) && j > k-utf8.UTFMax; j-- {
			if utf8.RuneStart(s[j]) {
				k = j
				break
			}
		}
		mark := len(dst)
		dst = strconv.AppendQuote(dst, string(s[:k]))
		dst = append(dst[:mark], dst[mark+1:len(dst)-1]...)
		s = s[k:]
	}
	return append(dst, '"')
}

// scanner reads the subset of JSON the encoders write: one object of
// distinct known keys whose values are ASCII strings, string arrays,
// booleans and integers of at most 18 digits. It reports false on
// anything else, and the caller hands the line to encoding/json. A
// line's strings are unescaped end to end into text and become one Go
// string; a scanner is reused to keep that space, and batch's.
type scanner struct {
	s     []byte
	i     int
	text  []byte
	ends  []int // string j is text[ends[j]:ends[j+1]]
	batch []string
	rows  [][]byte
	seen  uint // bit k: keys[k] was read
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
	*l = scanner{s: line, text: l.text[:0], ends: append(l.ends[:0], 0), batch: l.batch, rows: l.rows}
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

// field is the string read for keys[k], and list the array, written
// over *buf and kept there; all is text as one string.
func (l *scanner) field(all string, k int) string {
	if j := l.first[k]; l.seen&(1<<k) != 0 {
		return all[l.ends[j]:l.ends[j+1]]
	}
	return ""
}

func (l *scanner) list(all string, k int, buf *[]string) []string {
	if l.seen&(1<<k) == 0 {
		return nil
	}
	out := (*buf)[:0]
	if out == nil {
		out = make([]string, 0, l.val[k])
	}
	for j := l.first[k]; j < l.first[k]+int(l.val[k]); j++ {
		out = append(out, all[l.ends[j]:l.ends[j+1]])
	}
	*buf = out
	return out
}

// The keys of the two line types and a .load payload, and their kinds.
var (
	requestKeys  = []string{"id", "stmt", "timeout_ms", "wire", "trace_id"}
	responseKeys = []string{"id", "result", "error", "batch", "more", "rows", "schema", "elapsed_us"}
	loadKeys     = []string{"table", "cols", "rows"}
)

const requestKinds, responseKinds, loadKinds = "nsnbs", "nsslbnln", "sll"

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
// substrings of one string; Batch is l.batch, rewritten by the next.
func (l *scanner) response(line []byte) (Response, error) {
	if !l.object(line, responseKeys, responseKinds) {
		var slow Response
		err := json.Unmarshal(line, &slow)
		return slow, err
	}
	all := string(l.text)
	return Response{ID: l.val[0], Result: l.field(all, 1), Error: l.field(all, 2), Batch: l.list(all, 3, &l.batch),
		More: l.val[4] == 1, Rows: int(l.val[5]), Schema: l.list(all, 6, new([]string)), ElapsedUS: int64(l.val[7])}, nil
}

// load decodes a .load payload as json.Unmarshal into a zero LoadRequest
// does, except that Rows stays empty: the rows come back as bytes,
// windows of the scanner's buffers until its next use.
func (l *scanner) load(payload []byte) (lr LoadRequest, rows [][]byte, err error) {
	l.rows = l.rows[:0]
	if !l.object(payload, loadKeys, loadKinds) {
		err = json.Unmarshal(payload, &lr)
		for _, r := range lr.Rows {
			l.rows = append(l.rows, []byte(r))
		}
		return LoadRequest{Table: lr.Table, Cols: lr.Cols}, l.rows, err
	}
	str := func(j int) []byte { return l.text[l.ends[j]:l.ends[j+1]] }
	if l.seen&1 != 0 {
		lr.Table = string(str(l.first[0]))
	}
	if l.seen&2 != 0 {
		lr.Cols = make([]string, 0, l.val[1])
		for j := l.first[1]; j < l.first[1]+int(l.val[1]); j++ {
			lr.Cols = append(lr.Cols, string(str(j)))
		}
	}
	for j := l.first[2]; l.seen&4 != 0 && j < l.first[2]+int(l.val[2]); j++ {
		l.rows = append(l.rows, str(j))
	}
	return lr, l.rows, nil
}
