// Package kvstore implements the small embedded key-value storage engine
// that backs Hive's durable entities (users, papers, sessions, Q&A,
// workpads). The paper's deployment stored these in MySQL under Joomla;
// this engine is the stdlib-only substitute: an in-memory sorted index
// over an append-only write-ahead log with CRC-framed records, plus
// point-in-time snapshots and log compaction.
//
// In memory the store is two structures kept in step under one lock: a
// hash map from key to value, which serves Get and Has in O(1), and an
// ordered index of the keys alone (a B+tree with chained leaves, see
// keyIndex), which stands in for the ordered secondary indexes of the
// paper's SQL store. With n live keys, writing a new key or deleting one
// costs O(log n) in the index and overwriting a key does not touch it;
// Scan, Keys, AscendKeys and DescendKeys seek to their bound in
// O(log n) and then examine only the keys they deliver, so a prefix or
// range read costs O(log n + matches) however large the rest of the
// store is. The index is never persisted: Open builds it once from the
// replayed snapshot and WAL, ImportSnapshot once from the imported
// image, and the snapshot file is written by walking it.
//
// Durability model: every Put/Delete is appended to the WAL before the
// in-memory index is updated. On open, the snapshot (if any) is loaded and
// the WAL tail is replayed; torn tail records are detected via CRC and
// truncated, mirroring standard database recovery.
//
// Compact writes a snapshot and truncates the WAL, but only when a
// caller asks: nothing in hived does (ImportSnapshot, a follower's
// bootstrap, is the one path that resets the log), so a node's wal.log
// grows for the life of its data dir and Open replays all of it.
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("kvstore: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store closed")

// Store is a durable key-value store. It is safe for concurrent use.
type Store struct {
	mu  sync.RWMutex
	dir string
	// mem holds the live values. A stored slice is never written again
	// (every write installs a fresh copy), so a reader may keep one it
	// fetched under the lock and copy it after unlocking.
	mem map[string][]byte
	// idx orders exactly the keys of mem.
	idx    keyIndex
	wal    *walWriter
	closed bool
	// examined counts the keys the range reads looked at, matched or
	// not; tests use it to prove a read stays inside its range.
	examined atomic.Int64
	// writeHook, when set, observes every committed write (see
	// SetWriteHook).
	writeHook func(key string, val []byte, del bool)
}

// SetWriteHook registers a single observer invoked once per committed
// write — after the WAL append and memory update, under the store lock,
// so the hook sees writes in commit order. The hook must be fast and
// must not call back into the store. It exists so a higher layer (the
// social store's replication journal) can capture the exact byte-level
// image of each write batch; ApplyQuiet bypasses it for writes that are
// themselves replicas.
func (s *Store) SetWriteHook(fn func(key string, val []byte, del bool)) {
	s.mu.Lock()
	s.writeHook = fn
	s.mu.Unlock()
}

// Open opens (creating if necessary) a store rooted at dir. If dir is
// empty the store is purely in-memory and non-durable.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, mem: make(map[string][]byte), idx: buildIndex(nil)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	err := replayWAL(s.walPath(), func(op byte, key, val []byte) {
		switch op {
		case opPut:
			s.mem[string(key)] = append([]byte(nil), val...)
		case opDelete:
			delete(s.mem, string(key))
		}
	})
	if err != nil {
		return nil, err
	}
	s.reindexLocked()
	w, err := openWALWriter(s.walPath())
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

func (s *Store) walPath() string      { return filepath.Join(s.dir, "wal.log") }
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.db") }

// Put stores val under key, overwriting any previous value.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wal != nil {
		if err := s.wal.append(opPut, []byte(key), val); err != nil {
			return err
		}
	}
	s.putLocked(key, val)
	if s.writeHook != nil {
		s.writeHook(key, val, false)
	}
	return nil
}

// putLocked installs a copy of val under key, indexing the key when it
// is new.
func (s *Store) putLocked(key string, val []byte) {
	if _, ok := s.mem[key]; !ok {
		s.idx.insert(key)
	}
	s.mem[key] = append([]byte(nil), val...)
}

func (s *Store) deleteLocked(key string) {
	delete(s.mem, key)
	s.idx.delete(key)
}

// reindexLocked rebuilds the key index from mem.
func (s *Store) reindexLocked() {
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s.idx = buildIndex(keys)
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	v, ok := s.mem[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return append([]byte(nil), v...), nil
}

// Has reports whether key is present.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.mem[key]
	return ok
}

// Delete removes key. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.mem[key]; !ok {
		return nil
	}
	if s.wal != nil {
		if err := s.wal.append(opDelete, []byte(key), nil); err != nil {
			return err
		}
	}
	s.deleteLocked(key)
	if s.writeHook != nil {
		s.writeHook(key, nil, true)
	}
	return nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mem)
}

// Range reads collect under the read lock in chunks and deliver between
// chunks: the first chunk is small so that a caller who stops early has
// paid for little, and chunks grow so that a full scan takes the lock a
// few times per thousand keys.
const (
	scanChunkMin = 16
	scanChunkMax = 1024
)

type scanItem struct {
	key string
	val []byte
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
	buf := make([]scanItem, 0, scanChunkMin)
	for chunk := scanChunkMin; ; chunk = min(chunk*4, scanChunkMax) {
		buf = buf[:0]
		examined := 0
		s.mu.RLock()
		s.idx.ascend(from, func(k string) bool {
			examined++
			if !strings.HasPrefix(k, prefix) {
				return false
			}
			it := scanItem{key: k}
			if vals {
				it.val = s.mem[k]
			}
			buf = append(buf, it)
			return len(buf) < chunk
		})
		s.mu.RUnlock()
		s.examined.Add(int64(examined))
		for _, it := range buf {
			if !fn(it.key, append([]byte(nil), it.val...)) {
				return
			}
		}
		if len(buf) < chunk {
			return
		}
		from = buf[len(buf)-1].key + "\x00" // the smallest key after the last one delivered
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
// all entries become visible or none (on WAL error, nothing is applied).
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
// the replica-apply path: a follower folding a leader's write batch in
// must not re-capture it for its own outbound journal record (the
// replicated record is appended verbatim instead).
func (s *Store) ApplyQuiet(b *Batch) error { return s.apply(b, false) }

func (s *Store) apply(b *Batch, hook bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wal != nil {
		// Append all records first; only mutate memory after every append
		// succeeded so a mid-batch I/O error leaves memory untouched.
		for k, v := range b.puts {
			if err := s.wal.append(opPut, []byte(k), v); err != nil {
				return err
			}
		}
		for k := range b.deletes {
			if err := s.wal.append(opDelete, []byte(k), nil); err != nil {
				return err
			}
		}
	}
	for k, v := range b.puts {
		s.putLocked(k, v)
		if hook && s.writeHook != nil {
			s.writeHook(k, v, false)
		}
	}
	for k := range b.deletes {
		s.deleteLocked(k)
		if hook && s.writeHook != nil {
			s.writeHook(k, nil, true)
		}
	}
	return nil
}

// ImportSnapshot atomically replaces the store's entire contents with
// entries — the replication-bootstrap path: a follower loads the
// leader's full key-value image before tailing its journal. On durable
// stores the new state is persisted as a snapshot file and the WAL is
// reset, so a crashed follower reopens into the imported state. The
// write hook is not invoked (imports are replicas by definition).
//
// Crash ordering: the old WAL belongs to the *discarded* state, so it
// must be gone before the new snapshot file is installed — otherwise a
// crash in between would make reopen replay stale records on top of
// the imported image (unlike Compact, where WAL contents are a subset
// of the snapshot and replay is idempotent). The snapshot is staged to
// a temp file first, so the sequence old-state → no-WAL-old-snapshot →
// imported-state only ever passes through self-consistent states.
func (s *Store) ImportSnapshot(entries map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	mem := make(map[string][]byte, len(entries))
	for k, v := range entries {
		mem[k] = append([]byte(nil), v...)
	}
	s.mem = mem
	s.reindexLocked()
	if s.dir == "" {
		return nil
	}
	tmp, err := s.stageSnapshotLocked()
	if err != nil {
		return err
	}
	if err := s.resetWALLocked(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		return fmt.Errorf("kvstore: rename snapshot: %w", err)
	}
	return nil
}

// Compact writes a snapshot of the live data and truncates the WAL. The
// store stays usable throughout.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.dir == "" {
		return nil
	}
	if err := s.writeSnapshotLocked(); err != nil {
		return err
	}
	return s.resetWALLocked()
}

// resetWALLocked closes, deletes and re-creates the WAL.
func (s *Store) resetWALLocked() error {
	if err := s.wal.close(); err != nil {
		return err
	}
	if err := os.Remove(s.walPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("kvstore: remove wal: %w", err)
	}
	w, err := openWALWriter(s.walPath())
	if err != nil {
		return err
	}
	s.wal = w
	return nil
}

// Close flushes and closes the store. Further operations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		return s.wal.close()
	}
	return nil
}

// writeSnapshotLocked persists the in-memory table atomically via a temp
// file + rename.
func (s *Store) writeSnapshotLocked() error {
	tmp, err := s.stageSnapshotLocked()
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		return fmt.Errorf("kvstore: rename snapshot: %w", err)
	}
	return nil
}

// stageSnapshotLocked writes the in-memory table to the snapshot temp
// file and returns its path; the caller renames it into place when its
// crash-ordering constraints are satisfied.
func (s *Store) stageSnapshotLocked() (string, error) {
	tmp := s.snapshotPath() + ".tmp"
	var buf bytes.Buffer
	s.idx.ascend("", func(k string) bool {
		writeRecord(&buf, opPut, []byte(k), s.mem[k])
		return true
	})
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("kvstore: write snapshot: %w", err)
	}
	return tmp, nil
}

func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(s.snapshotPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("kvstore: read snapshot: %w", err)
	}
	_, err = replayRecords(data, func(op byte, key, val []byte) {
		if op == opPut {
			s.mem[string(key)] = append([]byte(nil), val...)
		}
	})
	if err != nil {
		return fmt.Errorf("kvstore: corrupt snapshot: %w", err)
	}
	return nil
}
