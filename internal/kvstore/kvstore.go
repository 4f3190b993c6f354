// Package kvstore implements the small embedded key-value storage engine
// that backs Hive's durable entities (users, papers, sessions, Q&A,
// workpads). The paper's deployment stored these in MySQL under Joomla;
// this engine is the stdlib-only substitute: an in-memory sorted index
// with CRC-framed checkpoints on disk.
//
// In memory the store is one structure under one lock: a B+tree with
// chained leaves that hold every live key with its value, in key order,
// each leaf packed into one byte arena under its keys' shared prefix
// (see keyIndex). It stands in for the paper's SQL table and for the
// ordered secondary indexes on it. With n live keys, Get, Has, Put and
// Delete cost O(log n); Scan, Keys, AscendKeys and DescendKeys seek to
// their bound in O(log n) and then examine only the keys they deliver,
// so a prefix or range read costs O(log n + matches) however large the
// rest of the store is. Open bulk-loads the tree from the checkpoint,
// whose records are in key order, ImportSnapshot from the imported
// image once sorted, and a checkpoint captures the image by walking the
// leaves: a stored value is never written again, so the capture copies
// value references, builds key strings and holds the read lock briefly.
//
// Durability model: the store is a memory image plus checkpoints, and it
// keeps no log of its own. The log is its owner's — the social store's
// change journal, which records every write batch before it is
// acknowledged. Checkpoint writes the whole image to snapshot.db
// (through a temp file and a rename) with a trailer naming the log
// position W it covers; Open loads that checkpoint, whole or not at all,
// and the owner replays its log past W. A checkpoint lets the owner drop
// the log it covers, which bounds both the disk a node holds and the
// replay a restart pays. Writes made since the last checkpoint live only
// in memory here: a store nobody checkpoints is an in-memory one.
package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("kvstore: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store closed")

// Store is a key-value memory image with checkpoints. It is safe for
// concurrent use.
type Store struct {
	mu  sync.RWMutex
	dir string
	// idx is the image. A stored value is never written again (every
	// write installs a fresh copy), so a reader may keep one it fetched
	// under the lock and copy it after unlocking.
	idx    keyIndex
	closed bool
	// ckMu serializes the writers of checkpoint files (Checkpoint and
	// ImportSnapshot); it is taken before mu.
	ckMu sync.Mutex
	// w is the log position the image Open loaded covers, then that of
	// each checkpoint written since.
	w atomic.Uint64
	// examined counts the keys the range reads looked at, matched or
	// not; tests use it to prove a read stays inside its range.
	examined atomic.Int64
	// writeHook, when set, observes every committed write (see
	// SetWriteHook).
	writeHook func(key string, val []byte, del bool)
}

// SetWriteHook registers a single observer invoked once per committed
// write — after the memory update, under the store lock, so the hook
// sees writes in commit order. The hook must be fast and must not call
// back into the store. It exists so a higher layer (the social store's
// change journal) can capture the exact byte-level image of each write
// batch; ApplyQuiet bypasses it for writes that are themselves replicas.
func (s *Store) SetWriteHook(fn func(key string, val []byte, del bool)) {
	s.mu.Lock()
	s.writeHook = fn
	s.mu.Unlock()
}

// Log is the owner's log as a durable store sees it at open: the first
// and the last position it holds, and the restart that completes an
// import (see journal.Journal).
type Log interface {
	Oldest() uint64
	Tail() uint64
	Reset(after uint64) error
}

// Open opens a store whose owner keeps no log (see OpenLogged).
func Open(dir string) (*Store, error) { return OpenLogged(dir, nil) }

// OpenLogged opens (creating if necessary) a store rooted at dir and
// loads its checkpoint. A checkpoint that is not whole, or whose keys
// are not strictly ascending, fails Open, naming the file: it is the
// only copy of everything at or below its position. Open also settles, against the owner's log (nil if there is
// none), what a crash or an older layout left in dir: a checkpoint that
// crashed before its rename is discarded, an import that crashed after
// its commit point is finished (see ImportSnapshot) and a torn one
// discarded, and a pre-journal dir is migrated (see migrate). If dir is
// empty the store is purely in-memory.
func OpenLogged(dir string, log Log) (*Store, error) {
	s := &Store{dir: dir, idx: buildIndex(nil)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	if err := os.Remove(s.tempPath()); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("kvstore: remove staged checkpoint: %w", err)
	}
	if _, w, err := readImageFile(s.importPath(), false); err == nil {
		if err := s.finishImport(w, log); err != nil {
			return nil, err
		}
	} else if err := os.Remove(s.importPath()); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("kvstore: remove torn import: %w", err)
	}
	walLog, err := os.ReadFile(s.legacyLogPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("kvstore: read %s: %w", s.legacyLogPath(), err)
	}
	legacy := err == nil
	items, w, err := readImageFile(s.snapshotPath(), legacy)
	switch {
	case err == nil:
		s.idx = buildIndex(items)
		s.w.Store(w)
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("kvstore: checkpoint %s: %w", s.snapshotPath(), err)
	}
	if legacy {
		if err := s.migrate(walLog, log); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.db") }
func (s *Store) tempPath() string     { return s.snapshotPath() + ".tmp" }
func (s *Store) importPath() string   { return filepath.Join(s.dir, "import.db") }

// finishImport completes an import staged whole at position w: the log
// restarts right after w, unless it already does, and the staged image
// becomes the checkpoint.
func (s *Store) finishImport(w uint64, log Log) error {
	if log != nil && (log.Oldest() != w+1 || log.Tail() != w) {
		if err := log.Reset(w); err != nil {
			return fmt.Errorf("kvstore: finish import at %d: %w", w, err)
		}
	}
	if err := os.Rename(s.importPath(), s.snapshotPath()); err != nil {
		return fmt.Errorf("kvstore: install import: %w", err)
	}
	return nil
}

// Watermark returns the log position the image covers: that of the
// checkpoint Open loaded, or of the last one written since (0 = none).
func (s *Store) Watermark() uint64 { return s.w.Load() }

// Put stores val under key, overwriting any previous value.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(key)+len(val) > maxEntry {
		return fmt.Errorf("kvstore: %q: key and value exceed %d bytes", key, maxEntry)
	}
	s.idx.put(key, val)
	if s.writeHook != nil {
		s.writeHook(key, val, false)
	}
	return nil
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	v, ok := s.idx.get(key)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return append([]byte(nil), v...), nil
}

// Has reports whether key is present.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.idx.get(key)
	return ok
}

// Delete removes key. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.idx.delete(key) {
		return nil
	}
	if s.writeHook != nil {
		s.writeHook(key, nil, true)
	}
	return nil
}

// Bytes reports the memory the image holds — leaf arenas, entry records,
// separators and node structs — walking every node under the read lock.
func (s *Store) Bytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.root.bytes()
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.len
}

// Range reads collect under the read lock in chunks and deliver between
// chunks: the first chunk is small so that a caller who stops early has
// paid for little, and chunks grow so that a full scan takes the lock a
// few times per thousand keys.
const (
	scanChunkMin = 16
	scanChunkMax = 1024
)

// Entry is a key with its value.
type Entry struct {
	Key string
	Val []byte
}

// Scan calls fn for every key with the given prefix, in ascending key
// order, until fn returns false. Values passed to fn are copies.
//
// fn runs outside the store lock, so it may call back into the store
// (holding the read lock across fn would deadlock a callback that reads
// behind a waiting writer). The price is that a scan longer than one
// chunk is not a point-in-time view: each chunk sees the store as it is
// when the chunk is collected, and a key written behind the scan's
// position is not revisited. Keys still arrive in strictly ascending
// order, each at most once. Iteration stops where fn stops: keys and
// values past the chunk in hand are never looked at.
func (s *Store) Scan(prefix string, fn func(key string, val []byte) bool) {
	s.ascend(prefix, prefix, true, fn)
}

// AscendKeys calls fn for every key with the given prefix that is >=
// from, in ascending order, until fn returns false; from == "" starts at
// the first key of the prefix. It reads no values. Locking and
// consistency are as for Scan.
func (s *Store) AscendKeys(prefix, from string, fn func(key string) bool) {
	s.ascend(prefix, from, false, func(k string, _ []byte) bool { return fn(k) })
}

func (s *Store) ascend(prefix, from string, vals bool, fn func(key string, val []byte) bool) {
	from = max(from, prefix)
	buf := make([]Entry, 0, scanChunkMin)
	for chunk := scanChunkMin; ; chunk = min(chunk*4, scanChunkMax) {
		buf = buf[:0]
		examined := 0
		s.mu.RLock()
		s.idx.ascend(from, func(k string, v []byte) bool {
			examined++
			if !strings.HasPrefix(k, prefix) {
				return false
			}
			it := Entry{Key: k}
			if vals {
				it.Val = v
			}
			buf = append(buf, it)
			return len(buf) < chunk
		})
		s.mu.RUnlock()
		s.examined.Add(int64(examined))
		for _, it := range buf {
			if !fn(it.Key, append([]byte(nil), it.Val...)) {
				return
			}
		}
		if len(buf) < chunk {
			return
		}
		from = buf[len(buf)-1].Key + "\x00" // the smallest key after the last one delivered
	}
}

// DescendKeys returns up to limit keys with the given prefix that are <
// before, in descending order; before == "" starts at the last key of
// the prefix and limit <= 0 means no limit. It reads no values and takes
// the read lock once, so the result is a point-in-time view.
func (s *Store) DescendKeys(prefix, before string, limit int) []string {
	end, bounded := prefixEnd(prefix)
	if before != "" && (!bounded || before < end) {
		end, bounded = before, true
	}
	var keys []string
	examined := 0
	s.mu.RLock()
	s.idx.descend(end, !bounded, func(k string) bool {
		examined++
		if !strings.HasPrefix(k, prefix) {
			return false
		}
		keys = append(keys, k)
		return limit <= 0 || len(keys) < limit
	})
	s.mu.RUnlock()
	s.examined.Add(int64(examined))
	return keys
}

// prefixEnd returns the smallest string greater than every string that
// starts with prefix; ok is false when there is none (the prefix is
// empty or all 0xff bytes).
func prefixEnd(prefix string) (end string, ok bool) {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			return prefix[:i] + string([]byte{prefix[i] + 1}), true
		}
	}
	return "", false
}

// Keys returns all keys with the given prefix in ascending order.
func (s *Store) Keys(prefix string) []string {
	var keys []string
	s.AscendKeys(prefix, "", func(k string) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// Batch applies a set of writes atomically with respect to readers: either
// all entries become visible or none.
type Batch struct {
	puts    map[string][]byte
	deletes map[string]bool
}

// NewBatch returns an empty batch.
func NewBatch() *Batch {
	return &Batch{puts: make(map[string][]byte), deletes: make(map[string]bool)}
}

// Put queues a write.
func (b *Batch) Put(key string, val []byte) *Batch {
	b.puts[key] = append([]byte(nil), val...)
	delete(b.deletes, key)
	return b
}

// Delete queues a deletion.
func (b *Batch) Delete(key string) *Batch {
	b.deletes[key] = true
	delete(b.puts, key)
	return b
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.puts) + len(b.deletes) }

// Apply commits the batch.
func (s *Store) Apply(b *Batch) error { return s.apply(b, true) }

// ApplyQuiet commits the batch without invoking the write hook. It is
// the replica-apply path: a follower folding a leader's write batch in,
// or a store replaying its own log at open, must not re-capture it (the
// logged record already carries it).
func (s *Store) ApplyQuiet(b *Batch) error { return s.apply(b, false) }

func (s *Store) apply(b *Batch, hook bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for k, v := range b.puts {
		if len(k)+len(v) > maxEntry {
			return fmt.Errorf("kvstore: %q: key and value exceed %d bytes", k, maxEntry)
		}
	}
	for k, v := range b.puts {
		s.idx.put(k, v)
		if hook && s.writeHook != nil {
			s.writeHook(k, v, false)
		}
	}
	for k := range b.deletes {
		s.idx.delete(k)
		if hook && s.writeHook != nil {
			s.writeHook(k, nil, true)
		}
	}
	return nil
}

// ImportSnapshot replaces the store's entire contents with items, as
// the checkpoint at log position w — the replication-bootstrap path: a
// follower loads the leader's full key-value image before tailing its
// journal. items must be in strictly ascending key order, as Image
// returns them (a key out of order or repeated is refused before any
// step), and the store copies their values. The write hook is not
// invoked (imports are replicas by definition). reset, when not nil,
// runs under the store lock after the image is staged and before it is
// installed: the owner restarts its log right after w there.
//
// On a durable store the steps are ordered so that a crash at any one of
// them reopens to the old state or to the imported one, never a mix: the
// image is first staged to import.db, and the import is committed once
// that file is whole; then reset runs; then the staged file is renamed
// over the checkpoint. Open discards a torn staged import and finishes a
// whole one, restarting the log itself if reset had not finished.
func (s *Store) ImportSnapshot(items []Entry, w uint64, reset func() error) error {
	for i, it := range items {
		if i > 0 && it.Key <= items[i-1].Key {
			return fmt.Errorf("kvstore: import: key %q is out of key order or duplicated", it.Key)
		}
		if len(it.Key)+len(it.Val) > maxEntry {
			return fmt.Errorf("kvstore: import: %q: key and value exceed %d bytes", it.Key, maxEntry)
		}
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.dir != "" {
		if err := writeImageFile(s.importPath(), items, w); err != nil {
			return fmt.Errorf("kvstore: stage import: %w", err)
		}
	}
	if reset != nil {
		if err := reset(); err != nil {
			return err
		}
	}
	if s.dir != "" {
		if err := os.Rename(s.importPath(), s.snapshotPath()); err != nil {
			return fmt.Errorf("kvstore: install import: %w", err)
		}
	}
	s.idx = buildIndex(items)
	s.w.Store(w)
	return nil
}

// Image returns the whole image, in key order, with the log position at
// returns for it. at runs under the store's read lock, so no write is in
// progress and none starts until the image is captured; it reports ok
// false when the image is not exactly the state at a log position, and
// Image then takes nothing. Stored values are never written again, so
// the capture copies value references and builds key strings: the
// caller must not modify the values it returns.
func (s *Store) Image(at func() (w uint64, ok bool)) (items []Entry, w uint64, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, false, ErrClosed
	}
	if w, ok = at(); !ok {
		return nil, 0, false, nil
	}
	items = make([]Entry, 0, s.idx.len)
	s.idx.ascend("", func(k string, v []byte) bool {
		items = append(items, Entry{Key: k, Val: v})
		return true
	})
	return items, w, true, nil
}

// Checkpoint writes the image as the checkpoint at the log position at
// returns; at runs as for Image, and when it declines Checkpoint
// writes nothing. The file is written after the lock is released,
// through a temp file and a rename; Watermark moves only once it is in
// place. A no-op on an in-memory store.
func (s *Store) Checkpoint(at func() (w uint64, ok bool)) error {
	if s.dir == "" {
		return nil
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	items, w, ok, err := s.Image(at)
	if err != nil || !ok {
		return err
	}
	if err := writeImageFile(s.tempPath(), items, w); err != nil {
		return fmt.Errorf("kvstore: write checkpoint: %w", err)
	}
	if err := os.Rename(s.tempPath(), s.snapshotPath()); err != nil {
		return fmt.Errorf("kvstore: rename checkpoint: %w", err)
	}
	s.w.Store(w)
	return nil
}

// writeImageFile writes items as a checkpoint at w to path, removing the
// file again if the write fails.
func writeImageFile(path string, items []Entry, w uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	writeImage(bw, items, w)
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// Close closes the store. Further operations fail with ErrClosed. It
// writes nothing: what is not in a checkpoint is the owner's log's.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
