package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
)

func (s *Store) legacyLogPath() string { return filepath.Join(s.dir, "wal.log") }

// migrate settles a data dir written before the change journal became
// the only log. Every write was appended to its wal.log first, so
// snapshot.db plus wal.log is the newest image the dir holds, and it
// holds every write the owner's log does: migrate folds data, the
// wal.log, over the loaded snapshot, checkpoints the result at the log's
// tail and removes the wal.log. A crash before the removal repeats the
// migration at the next open, to the same image. The log's final record
// may be torn — that store appended without a barrier — and is ignored,
// as that store's own recovery did.
func (s *Store) migrate(data []byte, log Log) error {
	replayRecords(data, func(op byte, key, val []byte) {
		switch op {
		case opPut:
			s.idx.put(string(key), val)
		case opDelete:
			s.idx.delete(string(key))
		}
	})
	w := s.Watermark()
	if log != nil {
		w = log.Tail()
	}
	if err := s.Checkpoint(func() (uint64, bool) { return w, true }); err != nil {
		return err
	}
	if err := os.Remove(s.legacyLogPath()); err != nil {
		return fmt.Errorf("kvstore: remove %s: %w", s.legacyLogPath(), err)
	}
	return nil
}
