package server

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/trace"
	"xst/internal/xtest"
)

// The oracle: the wire format as encoding/json defines it, which the
// codec must reproduce byte for byte (encoders) and value for value
// (decoders).

func oracleLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

func oracleParseRequest(line string) Request {
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "{") {
		var r Request
		if err := json.Unmarshal([]byte(line), &r); err == nil && r.Stmt != "" {
			return r
		}
	}
	return Request{Stmt: line}
}

// wireStrings is the string corpus: HTML-escaped bytes, every control
// character, quotes and backslashes, non-ASCII, the JavaScript line
// separators and invalid UTF-8.
func wireStrings() []string {
	ss := []string{"", "pong", "3 rows", `say "hi"`, `back\slash`, "a/b",
		"<script>&amp;</script>", "tab\there\nnew\rline\b\f", "\x7f",
		"héllo ⟨x⟩", "line\u2028sep\u2029end", "bad\xffutf8\xc3", "\xed\xa0\x80", "日本"}
	var ctl []byte
	for c := 0; c < 0x20; c++ {
		ctl = append(ctl, byte(c))
	}
	return append(ss, string(ctl))
}

// wireRows covers every row shape core's renderer tests plus random
// rows of atoms, floats and nested sets.
func wireRows() []table.Row {
	rows := []table.Row{
		{},
		{core.Int(7)},
		{core.Int(0), core.Int(-42), core.Int(math.MinInt64)},
		{core.Float(2), core.Float(-0.5), core.Float(1e21), core.Float(1e-7)},
		{core.Float(math.Inf(1)), core.Float(math.Inf(-1)), core.Float(100)},
		{core.Str(""), core.Str(`say "hi"`), core.Str("tab\there\n"), core.Str("héllo ⟨x⟩")},
		{core.Str("a,b"), core.Str("<1>"), core.Str("&")},
		{core.Bool(true), core.Bool(false)},
		{core.Empty(), core.S(core.Int(2), core.Int(1))},
		{core.Tuple(core.Int(1), core.Str("x")), core.Tuple()},
		{core.NewSet(core.M(core.Str("alice"), core.Str("name")))},
		{core.Pair(core.Pair(core.Int(1), core.Int(2)), core.S(core.Float(3)))},
	}
	for _, s := range wireStrings() {
		rows = append(rows, table.Row{core.Int(1), core.Str(s)})
	}
	r := xtest.NewRand(24)
	cfg := xtest.DefaultConfig()
	for i := 0; i < 300; i++ {
		row := make(table.Row, r.Intn(5))
		for j := range row {
			row[j] = cfg.Value(r)
		}
		rows = append(rows, row)
	}
	return rows
}

func wireResponses() []Response {
	ss := wireStrings()
	out := []Response{
		{},
		{ID: 1, Result: "pong", ElapsedUS: 12},
		{ID: math.MaxUint64, Rows: -3, ElapsedUS: -1},
		{ID: 9, Result: "2 rows", Rows: 2, Schema: []string{"id", "na<me>"}, ElapsedUS: 40},
		{ID: 5, Batch: []string{}, Schema: []string{}},
		{More: true, Batch: ss},
		{ID: 3, Result: "x", Trace: &trace.SpanSnapshot{Name: "query", TraceID: "t<1>", DurNS: 5, Note: "from T & U",
			Children: []trace.SpanSnapshot{{Name: "exec", Rows: 3}}}},
	}
	for i, s := range ss {
		out = append(out,
			Response{ID: uint64(i), Result: s, ElapsedUS: int64(i)},
			Response{Error: s, Rows: i},
			Response{Batch: []string{s, "x"}, More: true},
			Response{Schema: []string{s}})
	}
	return out
}

func wireRequests() []Request {
	out := []Request{
		{Stmt: "card({1})"},
		{ID: 7, Stmt: "from T where id = 42 select name", TimeoutMS: 250, Wire: true, TraceID: "ab12"},
		{ID: 1, Stmt: "x", TimeoutMS: -5},
	}
	for i, s := range wireStrings() {
		out = append(out, Request{ID: uint64(i), Stmt: s, TraceID: s})
	}
	return out
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// TestEncoderMatchesJSON: the codec writes the bytes encoding/json
// writes, for whole responses, requests and streamed batch lines, and
// its scanner takes every line it writes of ASCII text and short
// non-negative numbers without falling back.
func TestEncoderMatchesJSON(t *testing.T) {
	var dec scanner
	for _, r := range wireResponses() {
		got, want := string(appendResponse(nil, &r)), oracleLine(r)
		if got != want {
			t.Errorf("appendResponse(%+v)\n got %s\nwant %s", r, got, want)
		}
		fast := isASCII(fmt.Sprint(r)) && r.ID < 1e18 && r.Rows >= 0 && r.ElapsedUS >= 0 && r.Trace == nil
		if !dec.object([]byte(got), responseKeys, responseKinds) && fast {
			t.Errorf("scanner fell back on its own line %s", got)
		}
	}
	for _, r := range wireRequests() {
		got, want := string(appendRequest(nil, &r)), oracleLine(r)
		if got != want {
			t.Errorf("appendRequest(%+v)\n got %s\nwant %s", r, got, want)
		}
		fast := isASCII(fmt.Sprint(r)) && r.TimeoutMS >= 0
		if !dec.object([]byte(strings.TrimSpace(got)), requestKeys, requestKinds) && fast {
			t.Errorf("scanner fell back on its own request %s", got)
		}
	}

	rows := wireRows()
	var sess session
	for _, wire := range []bool{false, true} {
		for _, batch := range [][]table.Row{nil, rows[:1], rows[3:9], rows} {
			text := make([]string, len(batch))
			for i, r := range batch {
				if wire {
					text[i] = base64.StdEncoding.EncodeToString(table.EncodeRow(nil, r))
				} else {
					text[i] = string(core.AppendTuple(nil, r))
				}
			}
			for _, id := range []uint64{0, 17} {
				sess.batchLine(id, batch, wire)
				if want := oracleLine(Response{ID: id, Batch: text, More: true}); string(sess.line) != want {
					t.Errorf("batch line (wire=%v, %d rows)\n got %s\nwant %s", wire, len(batch), sess.line, want)
				}
			}
		}
	}
}

// FuzzRequest: for any line, ParseRequest answers as the oracle does.
func FuzzRequest(f *testing.F) {
	for _, r := range wireRequests() {
		f.Add(string(appendRequest(nil, &r)))
	}
	for _, s := range []string{
		`{1,2}+{3}`, `  .stats  `, `{"stmt":""}`, `{}`, `{"stmt":null}`, `{"ID":1,"Stmt":"x"}`,
		`{"id":1.0,"stmt":"x"}`, `{"id":007,"stmt":"x"}`, `{"id":-1,"stmt":"x"}`,
		`{"id":12345678901234567890,"stmt":"x"}`, `{"stmt":"a","stmt":"b"}`, `{"stmt":"Aé"}`,
		`{"stmt":"x"} trailing`, `{"stmt":"x",}`, `{"stmt":"x"}`, `{"stmt":"x","wire":1}`,
		"{\"stmt\":\"x\"\x0b}", `{"stmt":"\/\b\f\n\r\t\"\\"}`, `{"stmt":"bad \q"}`, `{"stmt":"x","extra":[1]}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if got, want := ParseRequest(line), oracleParseRequest(line); got != want {
			t.Fatalf("ParseRequest(%q) = %+v, oracle %+v", line, got, want)
		}
	})
}

// FuzzResponse: for any line, the client decoder answers as
// json.Unmarshal does, or both fail.
func FuzzResponse(f *testing.F) {
	for _, r := range wireResponses() {
		f.Add(string(appendResponse(nil, &r)))
	}
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `{"id":1,"batch":null}`, `{"batch":["a"],"batch":[]}`, `{"ID":1}`,
		`{"rows":1e2}`, `{"more":"true"}`, `{"result":"é"}`, `{"result":"x"`, `{"error":"a"} {}`,
		`{"batch":["a",]}`, `{"schema":[1]}`, `{"id":1,"trace":{"name":"q"},"elapsed_us":0}`,
	} {
		f.Add(s)
	}
	var dec scanner
	f.Fuzz(func(t *testing.T, line string) {
		got, err := dec.response([]byte(line))
		var want Response
		werr := json.Unmarshal([]byte(line), &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("response(%q): err %v, encoding/json err %v", line, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("response(%q) = %+v, encoding/json %+v", line, got, want)
		}
	})
}

// pointDB serves an indexed users table for point lookups.
func pointDB(t testing.TB) *catalog.Database {
	t.Helper()
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(table.Schema{Name: "users", Cols: []string{"id", "name", "city"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := tb.Insert(table.Row{core.Int(i), core.Str("user-" + string(rune('a'+i%26))), core.Str("city")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex(context.Background(), "users", "id", catalog.IndexHash); err != nil {
		t.Fatal(err)
	}
	return db
}

const pointStmt = "from users where id = 42 select id, name, city"

// TestWireAllocations: encoding a response of ASCII rows costs no
// allocation, and a warm point lookup through Client and a served
// Database stays inside its budget: 75 measured with this codec on
// go1.24/amd64, plus headroom. With encoding/json at both ends, a string
// per row and a timer per admission the same round trip took 110.
func TestWireAllocations(t *testing.T) {
	resp := Response{ID: 1 << 40, Result: "1 rows", Rows: 1, Batch: []string{`<42,"user-q">`, "<1,2>"}, Schema: []string{"id"}, ElapsedUS: 57}
	buf := appendResponse(nil, &resp)
	if got := testing.AllocsPerRun(100, func() { buf = appendResponse(buf[:0], &resp) }); got != 0 {
		t.Errorf("appendResponse: %.1f allocations, want 0", got)
	}
	var sess session
	batch := []table.Row{{core.Int(42), core.Str("user-q"), core.Float(2.5)}, {core.Int(7), core.Bool(true)}}
	for _, wire := range []bool{false, true} {
		sess.batchLine(1, batch, wire)
		if got := testing.AllocsPerRun(100, func() { sess.batchLine(1, batch, wire) }); got != 0 {
			t.Errorf("batchLine(wire=%v): %.1f allocations, want 0", wire, got)
		}
	}

	_, addr := startServer(t, Config{DB: pointDB(t)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lookup := func() {
		resp, err := c.Do(Request{Stmt: pointStmt})
		if err != nil || resp.Rows != 1 || len(resp.Batch) != 1 {
			t.Fatalf("point lookup = %+v, %v", resp, err)
		}
	}
	lookup()
	const budget = 85
	if got := testing.AllocsPerRun(200, lookup); got > budget {
		t.Errorf("point lookup round trip: %.1f allocations, budget %d", got, budget)
	}
}

func BenchmarkWireRoundTrip(b *testing.B) {
	srv, err := New(Config{Addr: "127.0.0.1:0", DB: pointDB(b)})
	if err != nil {
		b.Fatal(err)
	}
	go srv.ListenAndServe()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	defer srv.Shutdown(context.Background())
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(Request{Stmt: pointStmt}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClientErrorIsSticky: a response line over the client's 1 MiB
// limit leaves the rest of that line in the connection, so the error
// must stay — a later call parsing the leftover tail as its response
// would report a confusing "bad response" instead.
func TestClientErrorIsSticky(t *testing.T) {
	_, addr := startServer(t, Config{DB: streamDB(t, 60000)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, first := c.Eval("nums")
	if !errors.Is(first, bufio.ErrTooLong) {
		t.Fatalf("Eval of an oversized result: %v, want %v", first, bufio.ErrTooLong)
	}
	for _, stmt := range []string{"card({1})", ".ping"} {
		if _, err := c.Eval(stmt); err != first {
			t.Fatalf("Eval(%q) after the oversized line: %v, want the first error %v", stmt, err, first)
		}
	}
}

// TestAcquireRefundsPartialClaim: a claim that cannot complete in time
// hands back the tokens it took, and a free claim needs no waiting.
func TestAcquireRefundsPartialClaim(t *testing.T) {
	s, err := New(Config{MaxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !s.acquire(3, time.Millisecond) {
		t.Fatal("3 of 4 free tokens not granted")
	}
	if s.acquire(2, 5*time.Millisecond) {
		t.Fatal("2 tokens granted with 1 free")
	}
	if n := len(s.sem); n != 1 {
		t.Fatalf("%d tokens free after the refused claim, want 1", n)
	}
	s.release(3)
	if !s.acquire(4, 0) {
		t.Fatal("all 4 tokens not granted when free")
	}
}
