package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// A wire-mode batch's rows decode through buffers the call reuses, so every
// decoded row must still hold its own values after the later rows have
// overwritten those buffers — rows longer and shorter than the one
// before, strings included.
func TestDecodeLoadRowsKeepsEveryRow(t *testing.T) {
	want := []table.Row{
		{core.Int(1), core.Str(strings.Repeat("long-", 20))},
		{core.Int(-2), core.Str("s")},
		{core.Int(300000), core.Str(strings.Repeat("x", 60))},
		{core.Float(2.5), core.Str("")},
	}
	b64s := make([]string, len(want))
	for i, r := range want {
		b64s[i] = base64.StdEncoding.EncodeToString(table.EncodeRow(nil, r))
	}
	got, err := DecodeWireRows(b64s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !core.Equal(got[i][c], want[i][c]) {
				t.Fatalf("row %d column %d = %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}

	// Bad base64, a corrupt row and a row of another arity fail the
	// chunk.
	corrupt := base64.StdEncoding.EncodeToString([]byte{0x02, 0x09})
	short := base64.StdEncoding.EncodeToString(table.EncodeRow(nil, table.Row{core.Int(3)}))
	for bad, msg := range map[string]string{"!!!": "bad wire row: ", corrupt: "bad wire row: ", short: "wire row arity 1, want 2"} {
		rows, err := DecodeWireRows([]string{b64s[0], bad, b64s[1]}, 2)
		if err == nil || !strings.HasPrefix(err.Error(), msg) || rows != nil {
			t.Fatalf("row %q: rows %v, err %v", bad, rows, err)
		}
	}

	// Decoding the base64 allocates nothing past the buffers' growth: a
	// 40-row chunk costs what its rows keep and the slice that holds them.
	var raws [][]byte
	var many []string
	for i := 0; i < 10; i++ {
		for _, r := range want {
			raws = append(raws, table.EncodeRow(nil, r))
		}
		many = append(many, b64s...)
	}
	keep := testing.AllocsPerRun(20, func() {
		for _, raw := range raws {
			if _, err := table.DecodeRow(raw); err != nil {
				t.Fatal(err)
			}
		}
	})
	chunk := testing.AllocsPerRun(20, func() {
		if _, err := DecodeWireRows(many, 2); err != nil {
			t.Fatal(err)
		}
	})
	if chunk > keep+5 {
		t.Errorf("decoding a %d-row chunk: %.0f allocations, its rows keep %.0f (want at most 5 more: the slice and the buffers' growth)", len(many), chunk, keep)
	}
}

// A .load chunk with one bad row fails whole: the error comes back with
// the text DecodeWireRows gives the same rows, and neither the table the
// chunk would have created nor any of its rows is there afterwards — for
// a scratch and a shared table alike, absent or already loaded. Bad
// base64, a varint past 64 bits, another arity, bytes after the last
// value and a set under a btree key each fail this way.
func TestLoadBadChunkLeavesNoRows(t *testing.T) {
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{DB: db})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := func(vs ...core.Value) string {
		return base64.StdEncoding.EncodeToString(table.EncodeRow(nil, vs))
	}
	raw := func(b ...byte) string { return base64.StdEncoding.EncodeToString(b) }
	load := func(name string, rows ...string) (string, error) {
		payload, err := json.Marshal(LoadRequest{Table: name, Cols: []string{"a", "b"}, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		return c.Eval(".load " + string(payload))
	}
	count := func(name string) int {
		var got []string
		if _, err := c.Query("from "+name, func(rows []string) error {
			got = append(got, rows...)
			return nil
		}); err != nil {
			return 0 // no such table
		}
		return len(got)
	}
	good, good2 := enc(core.Int(1), core.Int(2)), enc(core.Int(4), core.Int(5))
	bad := []struct{ row, want string }{
		{"!!!!", "bad wire row: illegal base64 data at input byte 0"},
		{raw(2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 2), "bad wire row: core: corrupt value encoding"},
		{enc(core.Int(3)), "wire row arity 1, want 2"},
		{raw(append(table.EncodeRow(nil, table.Row{core.Int(1), core.Int(2)}), 0)...), "bad wire row: core: corrupt value encoding"},
	}
	failAll := func(name string, rows int) {
		t.Helper()
		for _, b := range bad {
			if _, err := DecodeWireRows([]string{good, b.row}, 2); err == nil || err.Error() != b.want {
				t.Fatalf("DecodeWireRows of %q: %v, want %q", b.row, err, b.want)
			}
			before := srv.m.TxnCommit.Value()
			if _, err := load(name, good, b.row, good2); err == nil || err.Error() != b.want {
				t.Fatalf("%s: chunk with %q answered %v, want %q", name, b.row, err, b.want)
			}
			if n := count(name); n != rows || srv.m.TxnCommit.Value() != before {
				t.Fatalf("%s holds %d rows after a failed chunk, want %d (%d commits)", name, n, rows, srv.m.TxnCommit.Value()-before)
			}
		}
	}
	for _, name := range []string{"__x", "x"} {
		failAll(name, 0)
		if _, err := db.Table(name); err == nil {
			t.Fatalf("%s: failed chunks created the table", name)
		}
		if res, err := load(name, good2); err != nil || res != name+": 1 rows" {
			t.Fatalf("%s: good chunk = %q, %v", name, res, err)
		}
		failAll(name, 1)
	}

	if _, err := load("bt", good); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(context.Background(), "bt", "a", catalog.IndexBTree); err != nil {
		t.Fatal(err)
	}
	const want = `index: column "a" holds non-atom <7,8>; btree needs atoms`
	before := srv.m.TxnCommit.Value()
	if _, err := load("bt", good2, enc(core.Tuple(core.Int(7), core.Int(8)), core.Int(9))); err == nil || err.Error() != want {
		t.Fatalf("a set under a btree key answered %v, want %q", err, want)
	}
	if n := count("bt"); n != 1 || srv.m.TxnCommit.Value() != before {
		t.Fatalf("bt holds %d rows after a failed chunk, want 1", n)
	}
}

// A first .load chunk into a shared table is one transaction: creating
// the table and inserting its rows raise the commit counter by exactly
// one. Two sessions racing first chunks into one new table both land
// their rows; neither fails with "table already exists".
func TestLoadFirstChunkOneCommit(t *testing.T) {
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{DB: db})
	payload := func(name string, vs ...int64) string {
		req := LoadRequest{Table: name, Cols: []string{"a"}}
		for _, v := range vs {
			req.Rows = append(req.Rows, base64.StdEncoding.EncodeToString(table.EncodeRow(nil, table.Row{core.Int(v)})))
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return ".load " + string(b)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := srv.m.TxnCommit.Value()
	if res, err := c.Eval(payload("first", 1, 2, 3)); err != nil || res != "first: 3 rows" {
		t.Fatalf("first chunk = %q, %v", res, err)
	}
	if got := srv.m.TxnCommit.Value() - before; got != 1 {
		t.Fatalf("first chunk committed %d transactions, want 1", got)
	}

	// Every session dials first, then all send at once, for a few fresh
	// tables in turn.
	const sessions, rounds = 4, 5
	clients := make([]*Client, sessions)
	for i := range clients {
		if clients[i], err = Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("raced%d", r)
		start := make(chan struct{})
		errs := make(chan error, sessions)
		for i, c := range clients {
			go func() {
				<-start
				_, err := c.Eval(payload(name, int64(i)))
				errs <- err
			}()
		}
		close(start)
		for range clients {
			if err := <-errs; err != nil {
				t.Errorf("%s: racing first chunk: %v", name, err)
			}
		}
		if tab, err := db.Table(name); err != nil || tab.Count() != sessions {
			t.Fatalf("%s after %d racing first chunks: %v, %v", name, sessions, tab, err)
		}
	}
}
