package server

import (
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

// A .load chunk's rows decode through buffers the chunk reuses, so every
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

// A .load chunk with one bad row fails whole: the error comes back, and
// neither the table the chunk would have created nor any of its rows is
// there afterwards — for a scratch and a shared table alike. A good
// chunk then creates the table with its own rows only.
func TestLoadBadChunkLeavesNoRows(t *testing.T) {
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{DB: db})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := func(vs ...int64) string {
		r := make(table.Row, len(vs))
		for i, v := range vs {
			r[i] = core.Int(v)
		}
		return base64.StdEncoding.EncodeToString(table.EncodeRow(nil, r))
	}
	load := func(name string, rows ...string) (string, error) {
		payload, err := json.Marshal(LoadRequest{Table: name, Cols: []string{"a", "b"}, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		return c.Eval(".load " + string(payload))
	}
	for _, name := range []string{"__x", "x"} {
		if _, err := load(name, enc(1, 2), enc(3), enc(4, 5)); err == nil || !strings.Contains(err.Error(), "arity") {
			t.Fatalf("%s: bad chunk answered %v, want the arity error", name, err)
		}
		var got []string
		if _, err := c.Query("from "+name, func(rows []string) error {
			got = append(got, rows...)
			return nil
		}); err == nil && len(got) > 0 {
			t.Fatalf("%s holds %v after the failed chunk", name, got)
		}
		if res, err := load(name, enc(4, 5)); err != nil || res != name+": 1 rows" {
			t.Fatalf("%s: good chunk = %q, %v", name, res, err)
		}
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
