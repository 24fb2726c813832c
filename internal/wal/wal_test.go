package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"xst/internal/store"
)

func pageWith(b byte) []byte {
	p := make([]byte, store.PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestCommitAppliesToBase(t *testing.T) {
	base := store.NewMemPager()
	log := NewMemLog()
	m := NewManager(base, log)

	txn := m.Begin()
	id, err := txn.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.WritePage(id, pageWith(7)); err != nil {
		t.Fatal(err)
	}
	// Before commit the base page is still zero.
	buf := make([]byte, store.PageSize)
	base.ReadPage(id, buf)
	if buf[0] != 0 {
		t.Fatal("uncommitted write leaked to base")
	}
	// The txn sees its own write.
	txn.ReadPage(id, buf)
	if buf[0] != 7 {
		t.Fatal("txn cannot read its own write")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	base.ReadPage(id, buf)
	if buf[0] != 7 {
		t.Fatal("commit did not apply")
	}
}

func TestAbortDiscards(t *testing.T) {
	base := store.NewMemPager()
	m := NewManager(base, NewMemLog())
	txn := m.Begin()
	id, _ := txn.Allocate()
	txn.WritePage(id, pageWith(9))
	txn.Abort()
	buf := make([]byte, store.PageSize)
	base.ReadPage(id, buf)
	if buf[0] != 0 {
		t.Fatal("aborted write visible")
	}
	if err := txn.Commit(); err != ErrTxnDone {
		t.Fatal("commit after abort must fail")
	}
	if _, err := txn.Allocate(); err != ErrTxnDone {
		t.Fatal("allocate after abort must fail")
	}
	if err := txn.WritePage(id, buf); err != ErrTxnDone {
		t.Fatal("write after abort must fail")
	}
	if err := txn.ReadPage(id, buf); err != ErrTxnDone {
		t.Fatal("read after abort must fail")
	}
}

func TestRecoveryReplaysCommitted(t *testing.T) {
	log := NewMemLog()
	// Build a log from one base...
	base1 := store.NewMemPager()
	m := NewManager(base1, log)
	t1 := m.Begin()
	p1, _ := t1.Allocate()
	t1.WritePage(p1, pageWith(1))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	p2, _ := t2.Allocate()
	t2.WritePage(p2, pageWith(2))
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	// ...then recover onto a completely fresh base.
	base2 := store.NewMemPager()
	n, err := Recover(base2, log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("redone %d txns, want 2", n)
	}
	buf := make([]byte, store.PageSize)
	base2.ReadPage(p1, buf)
	if buf[0] != 1 {
		t.Fatal("txn1 lost")
	}
	base2.ReadPage(p2, buf)
	if buf[0] != 2 {
		t.Fatal("txn2 lost")
	}
}

func TestCrashAtEveryLogPrefix(t *testing.T) {
	// Build a reference log of 3 committed txns, then crash-truncate at
	// every record boundary and verify atomicity: a txn is either fully
	// present or fully absent after recovery.
	log := NewMemLog()
	base := store.NewMemPager()
	m := NewManager(base, log)
	var pages []store.PageID
	for i := 0; i < 3; i++ {
		txn := m.Begin()
		a, _ := txn.Allocate()
		b, _ := txn.Allocate()
		txn.WritePage(a, pageWith(byte(10+i)))
		txn.WritePage(b, pageWith(byte(20+i)))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, a, b)
	}
	full, _ := log.Records()

	for cut := 0; cut <= len(full); cut++ {
		partial := NewMemLog()
		for _, r := range full[:cut] {
			partial.Append(r)
		}
		fresh := store.NewMemPager()
		if _, err := Recover(fresh, partial); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		// Check each txn's pair of pages is all-or-nothing.
		buf := make([]byte, store.PageSize)
		for i := 0; i < 3; i++ {
			a, b := pages[2*i], pages[2*i+1]
			var av, bv byte
			if int(a) < fresh.NumPages() {
				fresh.ReadPage(a, buf)
				av = buf[0]
			}
			if int(b) < fresh.NumPages() {
				fresh.ReadPage(b, buf)
				bv = buf[0]
			}
			applied := av == byte(10+i) && bv == byte(20+i)
			absent := av == 0 && bv == 0
			if !applied && !absent {
				t.Fatalf("cut=%d txn%d torn: a=%d b=%d", cut, i, av, bv)
			}
		}
	}
}

func TestUncommittedInvisibleAfterRecovery(t *testing.T) {
	log := NewMemLog()
	base := store.NewMemPager()
	m := NewManager(base, log)

	good := m.Begin()
	pg, _ := good.Allocate()
	good.WritePage(pg, pageWith(5))
	if err := good.Commit(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-commit of a second txn: append its page
	// record but no commit marker.
	bad := m.Begin()
	pb, _ := bad.Allocate()
	bad.WritePage(pb, pageWith(6))
	// Manually append only the page record (what a crash between page
	// append and commit append leaves behind).
	rec := make([]byte, 13+store.PageSize)
	rec[0] = recPage
	rec[1] = 99 // txn id 99, never committed
	copy(rec[13:], pageWith(6))
	log.Append(rec)

	fresh := store.NewMemPager()
	if _, err := Recover(fresh, log); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, store.PageSize)
	fresh.ReadPage(pg, buf)
	if buf[0] != 5 {
		t.Fatal("committed txn lost")
	}
	if int(pb) < fresh.NumPages() {
		fresh.ReadPage(pb, buf)
		if buf[0] == 6 {
			t.Fatal("uncommitted txn visible")
		}
	}
}

func TestFileLogRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{{1, 2, 3}, {4}, bytes.Repeat([]byte{9}, 5000)}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[2], recs[2]) {
		t.Fatalf("file log round trip: %d records", len(got))
	}
	l.Close()

	// Torn tail: append garbage length prefix; Records must drop it.
	l2, _ := OpenFileLog(path)
	l2.Append([]byte{7, 7})
	l2.Close()
	raw, _ := filepath.Glob(path)
	_ = raw
	// Truncate the file by 1 byte to tear the last record.
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}
	l3, _ := OpenFileLog(path)
	defer l3.Close()
	got, err = l3.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("torn tail not dropped: %d records", len(got))
	}
}

func TestFileBackedEndToEndRecovery(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.pages")
	logPath := filepath.Join(dir, "wal.log")

	base, err := store.OpenFilePager(basePath)
	if err != nil {
		t.Fatal(err)
	}
	log, err := OpenFileLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(base, log)
	txn := m.Begin()
	id, _ := txn.Allocate()
	txn.WritePage(id, pageWith(42))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	base.Close()
	log.Close()

	// "Crash": reopen a fresh base file elsewhere, recover from log.
	base2, err := store.OpenFilePager(filepath.Join(dir, "restored.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer base2.Close()
	log2, err := OpenFileLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if _, err := Recover(base2, log2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, store.PageSize)
	if err := base2.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatal("file-backed recovery lost data")
	}

	// Resume issuing transactions with fresh ids.
	m2, err := ResumeManager(base2, log2)
	if err != nil {
		t.Fatal(err)
	}
	txn2 := m2.Begin()
	if txn2.id <= 1 {
		t.Fatalf("resumed txn id %d must follow the log", txn2.id)
	}
	txn2.Abort()
}

func readFile(path string) ([]byte, error)  { return os.ReadFile(path) }
func writeFile(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

// BenchmarkWALCommit commits one freshly allocated full page per
// transaction through the manager over an in-memory log.
func BenchmarkWALCommit(b *testing.B) {
	mgr := NewManager(store.NewMemPager(), NewMemLog())
	payload := make([]byte, store.PageSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := mgr.Begin()
		id, err := txn.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		if err := txn.WritePage(id, payload); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
