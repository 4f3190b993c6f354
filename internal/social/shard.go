package social

import (
	"fmt"
	"slices"
	"strings"

	"hive/internal/kvstore"
)

// Shard-partition support. A sharded deployment runs one Store per
// shard and routes each mutation to the shard owning its user; the
// helpers here are the few store-level primitives that routing needs
// beyond the normal mutation surface: mirroring the symmetric half of a
// cross-shard connection, existence probes for routing by referenced
// entity, and a bounded newest-first event fetch for cross-shard feed
// pagination.

// MirrorConnection writes the connection edge between two users without
// logging an activity event. A connection between users on different
// shards applies as a full Connect on the initiator's shard (edge +
// activity) and a MirrorConnection on the peer's shard (edge only), so
// both shard engines see the edge in their graph layers while the
// activity stream records the connection exactly once. It consumes no
// clock and no activity sequence.
func (s *Store) MirrorConnection(a, b string) error {
	if a == b {
		return fmt.Errorf("%w: self-connection", ErrInvalid)
	}
	for _, u := range []string{a, b} {
		if !s.kv.Has(pUser + u) {
			return fmt.Errorf("%w: user %q", ErrNotFound, u)
		}
	}
	return s.scoped(func() error {
		batch := kvstore.NewBatch().
			Put(pConn+pairKey(a, b), nil).
			Put(pConnIdx+a+"/"+b, nil).
			Put(pConnIdx+b+"/"+a, nil)
		if err := s.kv.Apply(batch); err != nil {
			return err
		}
		s.emit(ChangePut, EntityConnection, pairKey(a, b), a, b)
		return nil
	})
}

// Existence probes for shard routing: a mutation referencing an entity
// by ID (an answer's question, a workpad item's workpad) lands on the
// shard that has the entity, which the router finds by probing.

// HasPaper reports whether a paper exists.
func (s *Store) HasPaper(id string) bool { return s.kv.Has(pPaper + id) }

// HasPresentation reports whether a presentation exists.
func (s *Store) HasPresentation(id string) bool { return s.kv.Has(pPres + id) }

// HasQuestion reports whether a question exists.
func (s *Store) HasQuestion(id string) bool { return s.kv.Has(pQuestion + id) }

// HasWorkpad reports whether a workpad exists.
func (s *Store) HasWorkpad(id string) bool { return s.kv.Has(pWorkpad + id) }

// EventsByActorsBefore returns up to limit events authored by the given
// actors with Seq < before, newest first. before == 0 means unbounded
// (start from the newest event). It decodes the keys EventKeysBefore
// lists, in order, until it holds limit events.
func (s *Store) EventsByActorsBefore(actors []string, before uint64, limit int) []Event {
	var evs []Event
	for _, seq := range s.EventKeysBefore(actors, before, limit) {
		if limit > 0 && len(evs) == limit {
			break
		}
		if ev, ok := s.EventAt(seq); ok {
			evs = append(evs, ev)
		}
	}
	return evs
}

// EventKeysBefore lists the sequence keys of events authored by the
// given actors with Seq < before, newest first, decoding nothing. It is
// the per-shard leg of the scatter-gather feed: each shard lists its own
// slice of the follow set's activity, and the coordinator merges the
// newest-first streams, decoding each event (EventAt) only when the
// merge reaches it and paginating on a per-shard sequence bound.
//
// The fixed-width sequence key ends every evactor/<actor>/ index key, so
// each actor's newest limit keys (all of them when limit <= 0) are read
// off the index in descending order and merged by key. The list can
// hold more than limit keys, so a caller that skips a key whose event
// is gone still finds limit events.
func (s *Store) EventKeysBefore(actors []string, before uint64, limit int) []string {
	var seqs []string
	for _, a := range actors {
		prefix, bound := pEvActor+a+"/", ""
		if before != 0 {
			bound = prefix + seqKey(before)
		}
		for _, k := range s.kv.DescendKeys(prefix, bound, limit) {
			seqs = append(seqs, k[len(prefix):])
		}
	}
	slices.SortFunc(seqs, func(a, b string) int { return strings.Compare(b, a) })
	return seqs
}
