// Package wal adds the reliability substrate the paper's introduction
// promises ("intrinsically reliable systems"): a physical write-ahead
// log over the store.Pager interface with atomic transactions and
// crash recovery.
//
// The design is redo-only page-image logging:
//
//   - A transaction buffers page writes in a shadow map; readers inside
//     the transaction see their own writes.
//   - Commit appends each dirty page's after-image plus a commit marker
//     to the log, *then* applies the images to the base pager. The log
//     is the authority: a crash between log append and base apply is
//     repaired by redo.
//   - Recover scans the log and re-applies the page images of every
//     committed transaction, in log order. Uncommitted tails are
//     ignored, so torn transactions vanish atomically.
//
// The log itself lives behind a tiny append-only interface with an
// in-memory and a file implementation, and the crash tests cut the log
// at every possible record boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"xst/internal/store"
)

// Log is an append-only record store.
type Log interface {
	// Append adds one record.
	Append(rec []byte) error
	// Records returns all records in append order.
	Records() ([][]byte, error)
	// Sync makes appended records durable.
	Sync() error
	// Close releases resources.
	Close() error
	// Reset empties the log (checkpoint truncation).
	Reset() error
}

// record kinds.
const (
	recPage   = 0x50 // 'P': txn u64, page u32, image [PageSize]byte
	recCommit = 0x43 // 'C': txn u64
	recAlloc  = 0x41 // 'A': txn u64, page u32 — page allocation
)

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// MemLog is an in-memory log (tests, crash simulation).
type MemLog struct {
	mu   sync.Mutex
	recs [][]byte
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := make([]byte, len(rec))
	copy(cp, rec)
	l.recs = append(l.recs, cp)
	return nil
}

// Records implements Log.
func (l *MemLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.recs))
	copy(out, l.recs)
	return out, nil
}

// Sync implements Log.
func (l *MemLog) Sync() error { return nil }

// Close implements Log.
func (l *MemLog) Close() error { return nil }

// Reset implements Log: the checkpoint truncation.
func (l *MemLog) Reset() error {
	l.mu.Lock()
	l.recs = nil
	l.mu.Unlock()
	return nil
}

// Truncate keeps only the first n records — the crash-injection hook.
func (l *MemLog) Truncate(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < len(l.recs) {
		l.recs = l.recs[:n]
	}
}

// Len returns the record count.
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// frameHeader is the size of a FileLog frame's header: the record's
// length, the CRC-32C (Castagnoli) of the record, and the CRC-32C of
// those eight bytes. The manager charges it per record in LoggedBytes.
const frameHeader = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileLog is a file of checksummed frames, one record each.
type FileLog struct {
	mu   sync.Mutex
	f    *os.File
	size int64 // bytes of whole frames
	err  error // sticky: a failed append the file could not be cut back from
}

// OpenFileLog opens or creates a log file.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileLog{f: f, size: fi.Size()}, nil
}

// Append implements Log. A frame whose write fails is cut off again,
// so the next transaction's frames never follow a torn one.
func (l *FileLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(rec, castagnoli))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(hdr[:8], castagnoli))
	_, err := l.f.Write(hdr[:])
	if err == nil {
		_, err = l.f.Write(rec)
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("wal: log holds a torn frame: %w", terr)
		}
		return err
	}
	l.size += frameHeader + int64(len(rec))
	return nil
}

// Records implements Log. A frame that fails its checksums ends the log
// when it can be the torn write of the last transaction, which a crash
// caught before its fsync: writers are serialized and each commit
// fsyncs before the next transaction appends, so every intact frame
// after such a frame belongs to that one transaction and none follows
// its commit record. An intact frame after a commit record, or frames
// of two transactions, prove the bad frame was synced: that is
// corruption, and an error.
func (l *FileLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	raw, err := os.ReadFile(l.f.Name())
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for off := 0; off < len(raw); {
		rec, n := frameAt(raw[off:])
		if n == 0 {
			if !tornTail(raw[off+1:]) {
				return nil, fmt.Errorf("wal: corrupt frame at byte %d", off)
			}
			break
		}
		out = append(out, rec)
		off += n
	}
	return out, nil
}

// frameAt decodes the frame at the start of b and returns its record
// and size; the size is 0 when b is too short for the frame or a
// checksum fails.
func frameAt(b []byte) ([]byte, int) {
	if len(b) < frameHeader || crc32.Checksum(b[:8], castagnoli) != binary.LittleEndian.Uint32(b[8:]) {
		return nil, 0
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(len(b)-frameHeader) < uint64(n) {
		return nil, 0
	}
	rec := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0
	}
	return rec, frameHeader + int(n)
}

// tornTail reports whether the intact frames in b, which follows a bad
// frame, all belong to one transaction and none follows its commit
// record. A bad header gives no length, so frames are found by their
// checksums at every offset.
func tornTail(b []byte) bool {
	var txn uint64
	seen, committed := false, false
	for p := 0; p < len(b); {
		rec, n := frameAt(b[p:])
		if n == 0 {
			p++
			continue
		}
		if committed || len(rec) < 9 {
			return false
		}
		id := binary.LittleEndian.Uint64(rec[1:])
		if seen && id != txn {
			return false
		}
		txn, seen, committed = id, true, rec[0] == recCommit
		p += n
	}
	return true
}

// Sync implements Log.
func (l *FileLog) Sync() error { return l.f.Sync() }

// Close implements Log.
func (l *FileLog) Close() error { return l.f.Close() }

// Reset implements Log: truncates the file (the O_APPEND handle keeps
// writing at the new end).
func (l *FileLog) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size, l.err = 0, nil
	return nil
}

// ErrTxnDone reports use of a finished transaction.
var ErrTxnDone = errors.New("wal: transaction already finished")

// Manager coordinates transactions over a base pager and a log.
type Manager struct {
	mu          sync.Mutex
	base        store.Pager
	log         Log
	nextTxn     uint64
	hooks       Hooks
	noSync      bool
	logBytes    int64 // appended since open/checkpoint
	checkpoints int64 // lifetime log-fold count
}

// NewManager builds a manager. Call Recover first when reopening
// existing storage.
func NewManager(base store.Pager, log Log) *Manager {
	return &Manager{base: base, log: log, nextTxn: 1}
}

// Txn is one atomic unit of page writes.
type Txn struct {
	mgr    *Manager
	id     uint64
	shadow map[store.PageID][]byte
	allocs []store.PageID
	done   bool
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	id := m.nextTxn
	m.nextTxn++
	hook := m.hooks.Begin
	m.mu.Unlock()
	if hook != nil {
		hook()
	}
	return &Txn{mgr: m, id: id, shadow: map[store.PageID][]byte{}}
}

// Allocate adds a page within the transaction. The allocation itself is
// immediate on the base pager (page ids are never reused, so an aborted
// allocation merely leaves a zero page), but the page contents become
// visible only on commit.
func (t *Txn) Allocate() (store.PageID, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	id, err := t.mgr.base.Allocate()
	if err != nil {
		return 0, err
	}
	t.allocs = append(t.allocs, id)
	t.shadow[id] = make([]byte, store.PageSize)
	return id, nil
}

// ReadPage reads through the shadow map, falling back to the base.
func (t *Txn) ReadPage(id store.PageID, buf []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if img, ok := t.shadow[id]; ok {
		copy(buf, img)
		return nil
	}
	return t.mgr.base.ReadPage(id, buf)
}

// WritePage buffers a page write in the transaction.
func (t *Txn) WritePage(id store.PageID, buf []byte) error {
	if t.done {
		return ErrTxnDone
	}
	img, ok := t.shadow[id]
	if !ok {
		img = make([]byte, store.PageSize)
		t.shadow[id] = img
	}
	copy(img, buf)
	return nil
}

// Abort discards the transaction. Aborting a finished transaction is a
// no-op, so `defer tx.Abort()` is a safe unwind guard around Commit.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.shadow = nil
	t.mgr.mu.Lock()
	hook := t.mgr.hooks.Abort
	t.mgr.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// Commit logs every dirty page and the commit marker, syncs the log,
// then applies the images to the base pager. See CommitWith for the
// variant that hands the images to a buffer pool instead.
func (t *Txn) Commit() error {
	return t.CommitWith(nil)
}

// Recover replays the log onto the base pager: the page images of every
// committed transaction are re-applied in log order; pages of
// uncommitted transactions are ignored. Missing pages are allocated so
// redo works on an empty base. It returns the number of transactions
// redone.
func Recover(base store.Pager, log Log) (int, error) {
	recs, err := log.Records()
	if err != nil {
		return 0, err
	}
	committed := map[uint64]bool{}
	maxTxn := uint64(0)
	for _, rec := range recs {
		if len(rec) >= 9 && rec[0] == recCommit {
			committed[binary.LittleEndian.Uint64(rec[1:])] = true
		}
		if len(rec) >= 9 {
			if id := binary.LittleEndian.Uint64(rec[1:]); id > maxTxn {
				maxTxn = id
			}
		}
	}
	redone := map[uint64]bool{}
	for _, rec := range recs {
		if len(rec) < 13 {
			continue
		}
		txn := binary.LittleEndian.Uint64(rec[1:])
		if !committed[txn] {
			continue
		}
		page := store.PageID(binary.LittleEndian.Uint32(rec[9:]))
		switch rec[0] {
		case recAlloc:
			for store.PageID(base.NumPages()) <= page {
				if _, err := base.Allocate(); err != nil {
					return 0, err
				}
			}
		case recPage:
			if len(rec) != 13+store.PageSize {
				return 0, fmt.Errorf("wal: corrupt page record (%d bytes)", len(rec))
			}
			for store.PageID(base.NumPages()) <= page {
				if _, err := base.Allocate(); err != nil {
					return 0, err
				}
			}
			if err := base.WritePage(page, rec[13:]); err != nil {
				return 0, err
			}
			redone[txn] = true
		}
	}
	return len(redone), nil
}

// ResumeManager builds a manager whose next transaction id follows
// everything in the log (use after Recover).
func ResumeManager(base store.Pager, log Log) (*Manager, error) {
	recs, err := log.Records()
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	for _, rec := range recs {
		if len(rec) >= 9 {
			if id := binary.LittleEndian.Uint64(rec[1:]); id >= next {
				next = id + 1
			}
		}
	}
	logged := int64(0)
	for _, rec := range recs {
		logged += int64(len(rec)) + frameHeader
	}
	return &Manager{base: base, log: log, nextTxn: next, logBytes: logged}, nil
}
