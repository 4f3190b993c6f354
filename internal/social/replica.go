package social

// Replication support: the store's change journal persists every
// delivered ChangeEvent batch together with the raw kv writes that
// produced it, so a follower can (1) bootstrap from a full kv snapshot
// and (2) tail the journal, applying each batch's kv image verbatim —
// its store becomes byte-identical to the leader's — and folding the
// typed events into its serving snapshot through the ordinary delta
// path. Events alone would not suffice: they carry IDs, not entity
// bodies, and consumers refetch from the local store.

import (
	"encoding/json"
	"errors"
	"fmt"

	"hive/internal/journal"
	"hive/internal/kvstore"
)

// Epoch fencing errors. ApplyReplica wraps them with the batch's and
// the store's epochs; callers branch with errors.Is.
var (
	// ErrStaleEpoch rejects a batch from a leadership term older than
	// the store's: a deposed leader kept writing after losing its lease.
	// The batch must be fenced (dropped), never applied — and the node
	// that produced it must not be used as a snapshot source either.
	ErrStaleEpoch = errors.New("social: replica batch from a stale epoch")
	// ErrEpochAhead rejects a batch from a newer leadership term than
	// the store has adopted. Per the compatibility rule a follower at
	// epoch N applies batches at N and re-bootstraps on N+1 — the
	// caller re-syncs from a snapshot, adopting the new epoch there.
	ErrEpochAhead = errors.New("social: replica batch from a newer epoch")
)

// ReplicationBatch is one journaled change batch: the inclusive
// sequence range, the typed events, and the kv-level write image. It is
// both the journal's record payload and the replication wire format
// (aliased by the api package).
//
// Events and kv writes are coalesced per delivery scope; under
// concurrent writers a batch may carry kv writes whose events ride a
// neighboring batch. That is harmless by construction: kv images apply
// verbatim and in order, and events are refetch hints.
//
// Epoch is the leadership term the batch was journaled under — the
// fencing token of the election layer. Followers reject batches whose
// epoch is behind their own (a deposed leader's writes) and re-bootstrap
// on batches ahead of it. Zero (omitted on the wire) marks a batch
// journaled before epochs existed, or by an unmanaged store; such
// batches are always accepted, which keeps pre-epoch journals readable.
type ReplicationBatch struct {
	First  uint64            `json:"first"`
	Last   uint64            `json:"last"`
	Epoch  uint64            `json:"epoch,omitempty"`
	Events []ChangeEvent     `json:"events"`
	Puts   map[string][]byte `json:"puts,omitempty"`
	Dels   []string          `json:"dels,omitempty"`
}

// Journaled reports whether the store has a durable change journal
// (false for in-memory stores, which cannot lead a replica set).
func (s *Store) Journaled() bool { return s.jn != nil }

// JournalError returns the journal failure that stopped the store's
// writes, else the last failed checkpoint; nil when the journal is
// healthy or absent. The journal is the store's only log, so a failed
// append fails its mutation, and every later write is refused with the
// same error until the store is reopened; reads still answer. The server
// surfaces it in healthz.
func (s *Store) JournalError() error {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.jnErr != nil {
		return s.jnErr
	}
	return s.ckErr
}

// JournalStats reports the journal's addressable range — oldest
// readable sequence, tail sequence — and its segment count. All zeros
// without a journal.
func (s *Store) JournalStats() (oldest, tail uint64, segments int) {
	if s.jn == nil {
		return 0, 0, 0
	}
	return s.jn.Stats()
}

// CommitIndex returns the cluster commit index persisted beside the
// journal: the highest change sequence a write quorum has acknowledged.
// Zero without a journal (an in-memory store cannot lead) or before any
// quorum write committed.
func (s *Store) CommitIndex() uint64 {
	if s.jn == nil {
		return 0
	}
	return s.jn.CommitIndex()
}

// SetCommitIndex durably advances the cluster commit index. The caller
// must have observed a quorum of follower acknowledgements at or past
// seq (the leader's ack tracker) or be adopting the leader's published
// index (a follower); regressions are ignored, the index is monotone.
func (s *Store) SetCommitIndex(seq uint64) error {
	if s.jn == nil {
		return fmt.Errorf("social: store has no change journal (in-memory store)")
	}
	return s.jn.SetCommitIndex(seq)
}

// ChangesSince reads up to max journaled batches containing events with
// sequence numbers strictly greater than after. It returns
// journal.ErrCompacted when the range was dropped by retention (the
// caller must re-bootstrap from a snapshot) and an empty result when
// the caller is caught up.
func (s *Store) ChangesSince(after uint64, max int) ([]ReplicationBatch, error) {
	if s.jn == nil {
		return nil, fmt.Errorf("social: store has no change journal (in-memory store)")
	}
	recs, err := s.jn.ReadFrom(after, max)
	if err != nil {
		return nil, err
	}
	out := make([]ReplicationBatch, 0, len(recs))
	for _, rec := range recs {
		rb, err := decodeBatch(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, rb)
	}
	return out, nil
}

// WaitChanges blocks until the journal holds sequences greater than
// after or done is closed, reporting whether new data arrived. It is
// the long-poll primitive under the replication feed endpoint.
func (s *Store) WaitChanges(done <-chan struct{}, after uint64) bool {
	if s.jn == nil {
		return false
	}
	return s.jn.WaitFrom(done, after)
}

// SnapshotForReplication captures the full kv image a follower
// bootstraps from together with the change-sequence watermark it
// covers: the image is exactly the journal folded up to seq, holding no
// write past it. It holds the scope lock exclusively, as Close does, so
// no mutation is in flight, and captures the image the way a checkpoint
// does, at the journal position (see position); the capture copies
// references, so writers wait milliseconds. entries is in key order and
// shares the stored values, which the caller must not modify. It is nil
// when the image is at no journal position: a replica batch is being
// applied, or a journal failure stopped the store.
func (s *Store) SnapshotForReplication() (seq uint64, entries []kvstore.Entry) {
	s.scope.Lock()
	entries, seq, ok, _ := s.kv.Image(s.position)
	s.scope.Unlock()
	if !ok {
		return 0, nil
	}
	return seq, entries
}

// ImportReplicaSnapshot atomically replaces the store's contents with a
// leader snapshot (entries in strictly ascending key order, whose values
// the store keeps) and moves the change sequence to its watermark — in
// either direction: an import replaces the world, so the watermark is
// authoritative even when it is lower than the current sequence (the
// re-sync-from-a-regressed-leader path). On a durable store the image
// becomes the checkpoint at the watermark and the journal restarts empty
// there: its records describe a history the image replaced — past the
// watermark they may be writes the image never held — so it must neither
// serve them nor replay them, and the next replicated batch must
// journal. The kv store orders the steps so that a crash at any one of
// them reopens to the old state or the imported one (see
// kvstore.ImportSnapshot).
//
//lint:allow hookcheck snapshot import replaces the whole image quietly; the follower rebuilds its engine from scratch afterwards
func (s *Store) ImportReplicaSnapshot(seq uint64, entries []kvstore.Entry) error {
	if err := s.writable(); err != nil {
		return err
	}
	reset := false
	err := s.kv.ImportSnapshot(entries, seq, func() error {
		s.evMu.Lock()
		defer s.evMu.Unlock()
		reset = true
		s.changeSeq = seq
		// Anything in flight before the import is now meaningless.
		s.capPuts, s.capDels, s.evBuf = nil, nil, nil
		if s.jn == nil {
			return nil
		}
		s.step("import.staged")
		if err := s.jn.Reset(seq); err != nil {
			return fmt.Errorf("social: reset journal to snapshot watermark %d: %w", seq, err)
		}
		s.step("import.reset")
		return nil
	})
	if err != nil {
		if reset {
			// The journal may already restart at the watermark while
			// memory still holds the old image: stop here, and let a
			// reopen finish the import.
			s.evMu.Lock()
			s.jnErr = err
			s.evMu.Unlock()
		}
		return err
	}
	if s.jn != nil {
		s.step("import.installed")
		if err := s.jn.SetCovered(seq); err != nil {
			return err
		}
	}
	// The imported counter key (meta/seq) was part of the image; adopt
	// it (in either direction — the image is the world now) so activity
	// sequences continue from it.
	s.mu.Lock()
	s.seq = 0
	if raw, err := s.kv.Get(kSeq); err == nil {
		var n uint64
		if json.Unmarshal(raw, &n) == nil {
			s.seq = n
		}
	}
	s.mu.Unlock()
	return nil
}

// ApplyReplica folds one replicated batch into the store. The batch is
// journaled first — the record is the write's only durable copy, so it
// must be on disk before the write is in memory — then its kv image
// applies verbatim (quietly: a replica must not re-capture the writes
// for an outbound record of its own), the change sequence fast-forwards
// to the batch's Last, and the events are delivered to subscribers so
// the platform folds them into its serving snapshot via the ordinary
// delta path. Batches at or below the current sequence are skipped
// (reconnect replays); a batch that spans it — one that straddles a
// bootstrap's watermark — is journaled and applied from the sequence
// after it, with its whole kv image (re-applying an image is
// idempotent). A batch that starts past the sequence after the current
// one is refused: the events between are missing, and only a snapshot
// restores them (a journal with that hole would not reopen).
//
// Epoch fencing happens first: a batch carrying an epoch behind the
// store's fails with ErrStaleEpoch (deposed-leader writes are dropped,
// not applied), one ahead of it fails with ErrEpochAhead (the caller
// re-bootstraps and adopts the new epoch from the snapshot). Epoch-0
// batches and epoch-0 stores are unmanaged and skip the check.
func (s *Store) ApplyReplica(rb ReplicationBatch) error {
	if rb.Last < rb.First || rb.First == 0 {
		return fmt.Errorf("social: invalid replica batch range [%d,%d]", rb.First, rb.Last)
	}
	s.evMu.Lock()
	if s.jnErr != nil {
		defer s.evMu.Unlock()
		return s.jnErr
	}
	if rb.Epoch != 0 && s.epoch != 0 && rb.Epoch != s.epoch {
		cur := s.epoch
		s.evMu.Unlock()
		if rb.Epoch < cur {
			return fmt.Errorf("%w: batch [%d,%d] at epoch %d, store at epoch %d", ErrStaleEpoch, rb.First, rb.Last, rb.Epoch, cur)
		}
		return fmt.Errorf("%w: batch [%d,%d] at epoch %d, store at epoch %d", ErrEpochAhead, rb.First, rb.Last, rb.Epoch, cur)
	}
	if rb.Last <= s.changeSeq {
		s.evMu.Unlock()
		return nil // already applied
	}
	if rb.First > s.changeSeq+1 {
		cur := s.changeSeq
		s.evMu.Unlock()
		return fmt.Errorf("social: replica batch [%d,%d] leaves a hole after sequence %d", rb.First, rb.Last, cur)
	}
	if rb.First <= s.changeSeq {
		// Only the events past the current sequence are new; the kv
		// image stays whole.
		evs := rb.Events[:0:0]
		for _, ev := range rb.Events {
			if ev.Seq > s.changeSeq {
				evs = append(evs, ev)
			}
		}
		rb.First, rb.Events = s.changeSeq+1, evs
	}
	if s.jn != nil {
		data, err := json.Marshal(rb)
		if err == nil {
			//lint:allow hookcheck appending under evMu keeps journal order identical to change-sequence order
			err = s.jn.Append(journal.Record{First: rb.First, Last: rb.Last, Data: data})
		}
		if err != nil {
			s.jnErr = fmt.Errorf("social: journal replica batch: %w", err)
			s.evMu.Unlock()
			return s.jnErr
		}
	}
	s.evMu.Unlock()

	if err := s.kv.ApplyQuiet(rb.kvBatch()); err != nil {
		return err
	}
	// The imported image may carry a newer activity counter.
	s.mu.Lock()
	if raw, err := s.kv.Get(kSeq); err == nil {
		var n uint64
		if json.Unmarshal(raw, &n) == nil && n > s.seq {
			s.seq = n
		}
	}
	s.mu.Unlock()

	s.evMu.Lock()
	s.changeSeq = rb.Last
	if rb.Epoch > s.epoch {
		// An unmanaged store adopts the leader's epoch from its feed.
		s.epoch = rb.Epoch
	}
	s.evMu.Unlock()

	s.deliver(rb.Events)
	s.scope.RLock() // as every caller of checkpointIfDue
	s.checkpointIfDue()
	s.scope.RUnlock()
	return nil
}

// kvBatch returns the batch's kv write image as a kvstore batch.
func (rb ReplicationBatch) kvBatch() *kvstore.Batch {
	b := kvstore.NewBatch()
	//lint:allow epochcheck callers fence first: ApplyReplica compares the epoch, and Open replays the store's own journal
	for k, v := range rb.Puts {
		b.Put(k, v)
	}
	for _, k := range rb.Dels {
		b.Delete(k)
	}
	return b
}

// decodeBatch decodes a journal record's payload. A payload that is not
// a batch over the record's own range is an error, never skipped: the
// record may be the only copy of its writes.
func decodeBatch(rec journal.Record) (ReplicationBatch, error) {
	var rb ReplicationBatch
	if err := json.Unmarshal(rec.Data, &rb); err != nil {
		return rb, fmt.Errorf("social: decode journal batch [%d,%d]: %w", rec.First, rec.Last, err)
	}
	if rb.First != rec.First || rb.Last != rec.Last {
		return rb, fmt.Errorf("social: journal record [%d,%d] carries batch [%d,%d]", rec.First, rec.Last, rb.First, rb.Last)
	}
	return rb, nil
}
