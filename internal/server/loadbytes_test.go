package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// loadSession is a server over a fresh database and one session of it,
// driven through handleLoad without a connection.
func loadSession(t testing.TB) (*Server, *session, *catalog.Database) {
	t.Helper()
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return srv, &session{s: srv, env: srv.baseEnv.Clone()}, db
}

// loadPayload is the `.load` payload of recs, each base64-encoded, with
// no cols key when cols is nil.
func loadPayload(t testing.TB, name string, cols []string, recs ...[]byte) string {
	t.Helper()
	req := struct {
		Table string   `json:"table"`
		Cols  []string `json:"cols,omitempty"`
		Rows  []string `json:"rows"`
	}{Table: name, Cols: cols}
	for _, rec := range recs {
		req.Rows = append(req.Rows, base64.StdEncoding.EncodeToString(rec))
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// loadedTable is the version of name a session's .load built: a
// session's own scratch table or the database's shared one.
func loadedTable(t *testing.T, sess *session, db *catalog.Database, name string) *table.Table {
	t.Helper()
	if a := sess.scratch[name]; a != nil {
		return a.Table()
	}
	tab, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// heapRecords returns the records on a table's heap pages, in order.
func heapRecords(t *testing.T, tab *table.Table) [][]byte {
	t.Helper()
	ids, err := tab.PageIDs()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, id := range ids {
		fr, err := tab.Pool().Page(id)
		if err != nil {
			t.Fatal(err)
		}
		store.SlottedPage(fr.Data()).Each(func(_ int, rec []byte) bool {
			out = append(out, bytes.Clone(rec))
			return true
		})
		fr.Unpin()
	}
	return out
}

// nonCanonical returns wire records of arity 2 that DecodeRow reads but
// EncodeRow does not write: an overlong varint in the arity and in an
// int, a -0.0, an unsorted set and a set with a duplicated member.
func nonCanonical(t *testing.T) [][]byte {
	t.Helper()
	negZero := binary.LittleEndian.AppendUint64([]byte{0x03}, math.Float64bits(math.Copysign(0, -1)))
	set := core.Encode(core.S(core.Int(1), core.Int(2)))
	_, hdr := binary.Uvarint(set[1:])
	m1, err := core.Skip(set[1+hdr:]) // the first member's element…
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.Skip(set[1+hdr+m1:]) // …and its scope
	if err != nil {
		t.Fatal(err)
	}
	first, second := set[1+hdr:1+hdr+m1+s1], set[1+hdr+m1+s1:]
	unsorted := append(append([]byte{0x05, 0x02}, second...), first...)
	dup := append(append(append([]byte{0x05, 0x03}, first...), second...), first...)
	return [][]byte{
		{0x82, 0x00, 0x02, 0x82, 0x00, 0x04, 0x01, 'a'}, // <1,"a"> with overlong varints
		append([]byte{0x02, 0x02, 0x06}, negZero...),
		append(append([]byte{0x02}, unsorted...), 0x02, 0x08),
		append([]byte{0x02, 0x02, 0x0a}, dup...),
	}
}

// A .load chunk's records reach the heap page as the wire carried them,
// into a shared and into a "__" session table alike, and a non-canonical
// record is stored as a decoded row would be: EncodeRow(DecodeRow(rec)).
func TestLoadStoresWireRecords(t *testing.T) {
	rows := []table.Row{
		{core.Int(1), core.Str("a")},
		{core.Int(-300000), core.Str(strings.Repeat("long ", 40))},
		{core.Float(2.5), core.Bool(true)},
		{core.Tuple(core.Int(7), core.Str("x")), core.Str("")},
		{core.Int(1 << 62), core.Bool(false)},
	}
	var canonical [][]byte
	for _, r := range rows {
		canonical = append(canonical, table.EncodeRow(nil, r))
	}
	odd := nonCanonical(t)
	var stored [][]byte
	for _, rec := range odd {
		r, err := table.DecodeRow(rec)
		if err != nil {
			t.Fatal(err)
		}
		enc := table.EncodeRow(nil, r)
		if bytes.Equal(enc, rec) {
			t.Fatalf("record %x is canonical already", rec)
		}
		stored = append(stored, enc)
	}
	srv, sess, db := loadSession(t)
	for _, name := range []string{"x", "__x"} {
		for _, chunk := range [][][]byte{canonical, odd} {
			if resp, _ := srv.handleLoad(sess, loadPayload(t, name, []string{"a", "b"}, chunk...)); resp.Error != "" {
				t.Fatalf("%s: %s", name, resp.Error)
			}
		}
		got := heapRecords(t, loadedTable(t, sess, db, name))
		want := append(append([][]byte{}, canonical...), stored...)
		if len(got) != len(want) {
			t.Fatalf("%s holds %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s record %d = %x, want %x", name, i, got[i], want[i])
			}
		}
	}
}

// An ASCII payload, its rows' '/' escaped or not, is read by the
// scanner, without encoding/json; one outside the scanner's subset, such
// as a non-ASCII table name, goes through encoding/json. Either way the
// rows load as the wire carried them.
func TestLoadPayloadPaths(t *testing.T) {
	srv, sess, db := loadSession(t)
	var recs [][]byte
	escaped := false
	for i := int64(0); i < 64; i++ {
		rec := table.EncodeRow(nil, table.Row{core.Int(i * 1000003), core.Str("?>?")})
		recs = append(recs, rec)
		escaped = escaped || strings.Contains(base64.StdEncoding.EncodeToString(rec), "/")
	}
	if !escaped {
		t.Fatal("no row's base64 holds a '/'")
	}
	var l scanner
	for _, name := range []string{"é", "__é", "slash", "__slash"} {
		payload := loadPayload(t, name, []string{"a", "b"}, recs...)
		if strings.HasSuffix(name, "slash") {
			payload = strings.ReplaceAll(payload, "/", `\/`)
		}
		if scanned, ascii := l.object([]byte(payload), loadKeys, loadKinds), !strings.Contains(name, "é"); scanned != ascii {
			t.Fatalf("%s: the scanner read the payload: %v", name, scanned)
		}
		resp, _ := srv.handleLoad(sess, payload)
		if want := name + ": 64 rows"; resp.Error != "" || resp.Result != want {
			t.Fatalf("%s: %+v, want %q", name, resp, want)
		}
		got := heapRecords(t, loadedTable(t, sess, db, name))
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("%s record %d = %x, want %x", name, i, got[i], recs[i])
			}
		}
	}
}

// TestLoadChunkAllocs: a 50-row chunk of three int columns goes from the
// payload to the page through handleLoad in at most 100 objects (83 on
// go1.24/amd64, 50 of them the hash index's keys on the first column).
// Decoding it with encoding/json and DecodeWireRows, then encoding the
// rows again, took 254.
func TestLoadChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves values to the heap")
	}
	srv, sess, db := loadSession(t)
	ctx := context.Background()
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"id", "kind", "n"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "ev", "id", catalog.IndexHash); err != nil {
		t.Fatal(err)
	}
	const chunk = 50
	var payloads []string
	for c := int64(0); c < 102; c++ {
		var recs [][]byte
		for i := c * chunk; i < (c+1)*chunk; i++ {
			recs = append(recs, table.EncodeRow(nil, table.Row{core.Int(1000 + i), core.Int(i % 7), core.Int(i * 3)}))
		}
		payloads = append(payloads, loadPayload(t, "ev", nil, recs...))
	}
	next := 0
	load := func() {
		resp, _ := srv.handleLoad(sess, payloads[next])
		next++
		if resp.Error != "" {
			t.Fatal(resp.Error)
		}
	}
	load()
	const budget = 100
	got := testing.AllocsPerRun(100, load)
	t.Logf("a %d-row .load chunk: %.1f allocations", chunk, got)
	if got > budget {
		t.Errorf("a %d-row .load chunk: %.1f allocations, budget %d", chunk, got, budget)
	}
	if tab, err := db.Table("ev"); err != nil || tab.Count() != len(payloads)*chunk {
		t.Fatalf("ev after %d chunks: %v, %v", len(payloads), tab, err)
	}
}
