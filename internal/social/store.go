package social

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hive/internal/journal"
	"hive/internal/kvstore"
)

// Sentinel errors.
var (
	// ErrNotFound is returned when a referenced entity does not exist.
	ErrNotFound = errors.New("social: not found")
	// ErrInvalid is returned for malformed entities (empty IDs, dangling
	// references).
	ErrInvalid = errors.New("social: invalid entity")
)

// Key prefixes. Secondary-index keys hold empty values; the primary key
// holds the JSON entity.
const (
	pUser      = "user/"
	pConf      = "conf/"
	pSession   = "session/"
	pSessConf  = "sessconf/" // conference -> session
	pPaper     = "paper/"
	pPaperConf = "paperconf/" // conference -> paper
	pPaperSess = "papersess/" // session -> paper
	pPaperAuth = "paperauth/" // author -> paper
	pPres      = "pres/"
	pPresPaper = "prespaper/" // paper -> presentation
	pPresOwner = "presowner/" // owner -> presentation
	pConn      = "conn/"      // sorted pair
	pConnIdx   = "connidx/"   // user -> other
	pFollow    = "follow/"    // follower -> followee
	pFollower  = "followr/"   // followee -> follower
	pCheckin   = "checkin/"   // session -> user
	pCheckinU  = "checkinu/"  // user -> session
	pQuestion  = "question/"
	pQAuthor   = "qauthor/" // author -> question
	pAnswer    = "answer/"
	pAQuestion = "aq/" // question -> answer
	pComment   = "comment/"
	pCTarget   = "ctarget/" // target -> comment
	pWorkpad   = "workpad/"
	pWPOwner   = "wpowner/"  // owner -> workpad
	pWPActive  = "wpactive/" // owner -> active workpad id
	pEvent     = "event/"
	pEvActor   = "evactor/"
	pEvTag     = "evtag/"
	kSeq       = "meta/seq"
)

// Store is the persistent social graph and content store. All methods are
// safe for concurrent use.
type Store struct {
	kv    *kvstore.Store
	clock Clock

	mu  sync.Mutex // guards seq allocation
	seq uint64

	hookMu sync.RWMutex // guards subs
	subs   []func([]ChangeEvent)

	// evMu guards the change-event sequence counter, the per-batch
	// event buffer, the kv write-capture buffers and journal appends
	// (appending under evMu keeps journal order identical to sequence
	// order). It is taken after the kv store's lock, never before.
	evMu      sync.Mutex
	changeSeq uint64
	evBuf     []ChangeEvent
	// lastDone is closed once every batch flushed so far is delivered
	// (nil before the first flush). Concurrent mutations share evBuf, so
	// one mutation's flush may carry another's events: a mutation
	// returns only once every batch flushed up to its own is delivered
	// (deliverFlushed).
	lastDone chan struct{}
	// epoch is the leadership term stamped into every journaled batch —
	// the election layer's fencing token. It only ever rises (SetEpoch)
	// and is recovered from the last journal record on reopen. Zero
	// means unmanaged (no election): batches carry no epoch and fencing
	// is off, which is exactly the pre-election behavior.
	epoch uint64

	// jn, when non-nil, is the durable store's only log: every change
	// batch is journaled together with the raw kv writes that produced
	// it before the mutation returns, and the kv store holds the rest as
	// a memory image plus a checkpoint. The same records are the
	// replication feed. capPuts/capDels accumulate the kv image of the
	// in-flight batch (filled by the kvstore write hook).
	jn      *journal.Journal
	capPuts map[string][]byte
	capDels map[string]bool
	// jnErr is the journal failure that stopped the store: memory then
	// holds a write the log does not, so every later write is refused
	// with it until the store is reopened.
	jnErr error
	// ckErr is the last failed checkpoint (nil once one succeeds). It
	// stops nothing — the journal keeps the segments it would have
	// covered — and is surfaced with JournalError.
	ckErr error

	// onStep, when a crash test sets it, runs at each step (see step).
	onStep func(step string)

	// scope orders mutations against Batched scopes. A mutation holds
	// it shared until its record is journaled; a Batched scope holds it
	// exclusively for its whole run, so a write on another goroutine
	// waits for the scope's record instead of folding into it. owner is
	// the thread of the goroutine running the open scope, which is
	// locked to it meanwhile (see threadID); that goroutine's writes nest
	// in the scope without the lock.
	scope sync.RWMutex
	owner atomic.Int64

	// ckBusy is set while a background checkpoint runs; ckWG lets Close
	// wait for it.
	ckBusy atomic.Bool
	ckWG   sync.WaitGroup
}

// OnChange subscribes to the store's typed change log. After every
// successful mutation — including writes that bypass the Platform
// wrappers and hit the store directly — the subscriber receives the
// batch of ChangeEvents the mutation emitted; a Batched pass delivers
// exactly one coalesced batch for all its writes. A mutation returns
// only once its events were delivered, also when a concurrent
// mutation's batch carried them. Subscribers must be fast and must not
// mutate the store — such a mutation would wait on the very delivery
// that made it (reads are fine: the events carry IDs, not entity
// bodies, so consumers refetch what they need).
func (s *Store) OnChange(fn func([]ChangeEvent)) {
	s.hookMu.Lock()
	s.subs = append(s.subs, fn)
	s.hookMu.Unlock()
}

// ChangeSeq returns the latest change-event sequence number assigned so
// far (0 before the first mutation on a fresh store; on durable stores
// it resumes from the journal after a reopen). Consumers use it as a
// watermark: a full rebuild started after observing ChangeSeq() covers
// every event with Seq at or below it.
func (s *Store) ChangeSeq() uint64 {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.changeSeq
}

// Epoch returns the leadership term the store currently stamps into
// journaled batches (0 = unmanaged, no fencing).
func (s *Store) Epoch() uint64 {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.epoch
}

// SetEpoch raises the store's epoch to e; lower values are ignored —
// epochs are monotonic, a regression would let a deposed leader's
// batches back past the fence. Called by the platform when an election
// outcome (promotion, or following a newer leader) is adopted.
func (s *Store) SetEpoch(e uint64) {
	s.evMu.Lock()
	if e > s.epoch {
		s.epoch = e
	}
	s.evMu.Unlock()
}

// emit appends a typed change event to the in-flight batch, which the
// mutation's scope (or the open Batched scope) journals and delivers.
// Events are emitted even when a later step of the mutator failed:
// earlier writes may have landed in memory, and a spurious event only
// costs a small redundant delta repair, whereas a missed one would leave
// those writes out of the journal.
func (s *Store) emit(kind ChangeKind, entity EntityType, id string, refs ...string) {
	s.evMu.Lock()
	s.changeSeq++
	s.evBuf = append(s.evBuf, ChangeEvent{Seq: s.changeSeq, Kind: kind, EntityType: entity, ID: id, Refs: refs})
	s.evMu.Unlock()
}

// flushEvents journals the buffered batch, if any, and returns it for
// delivery (see deliverFlushed), or the journal failure that stops the
// store.
func (s *Store) flushEvents() (flushed, error) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	f := flushed{evs: s.evBuf, prev: s.lastDone}
	s.evBuf = nil
	if err := s.journalLocked(f.evs); err != nil {
		return flushed{prev: f.prev}, err
	}
	if len(f.evs) > 0 {
		f.done = make(chan struct{})
		s.lastDone = f.done
	}
	return f, nil
}

// flushed is one flush handed to delivery: its events (none when
// another mutation's flush carried them), the completion of every
// earlier flush, and its own.
type flushed struct {
	evs        []ChangeEvent
	prev, done chan struct{}
}

// journalLocked durably appends the batch about to be delivered — its
// typed events plus the captured kv write image — to the change
// journal. Called under evMu so journal records are strictly ordered by
// sequence. A failed append stops the store (see jnErr): the batch's
// writes are in memory but not in the log.
func (s *Store) journalLocked(evs []ChangeEvent) error {
	if s.jnErr != nil {
		return s.jnErr
	}
	if s.jn == nil || len(evs) == 0 {
		// kv writes without change events (counter bumps riding a later
		// batch) stay buffered until an event batch carries them.
		return nil
	}
	puts, dels := s.capPuts, s.capDels
	s.capPuts, s.capDels = nil, nil
	rb := ReplicationBatch{
		First:  evs[0].Seq,
		Last:   evs[len(evs)-1].Seq,
		Epoch:  s.epoch,
		Events: evs,
		Puts:   puts,
	}
	for k := range dels {
		rb.Dels = append(rb.Dels, k)
	}
	sort.Strings(rb.Dels)
	data, err := json.Marshal(rb)
	if err == nil {
		err = s.jn.Append(journal.Record{First: rb.First, Last: rb.Last, Data: data})
	}
	if err != nil {
		s.jnErr = fmt.Errorf("social: journal append: %w", err)
	}
	return s.jnErr
}

// checkpointIfDue starts a checkpoint in the background when retention
// is holding segments for want of one and none is running, so the write
// that finds it due does not wait for the image to be written. Callers
// hold the scope lock (shared or not), which Close takes exclusively
// before it waits for the checkpoint.
func (s *Store) checkpointIfDue() {
	if s.jn == nil || !s.jn.Overdue() || !s.ckBusy.CompareAndSwap(false, true) {
		return
	}
	s.ckWG.Add(1)
	go func() {
		defer s.ckWG.Done()
		defer s.ckBusy.Store(false)
		s.checkpoint()
	}()
}

// position reports the journal tail, and whether the kv image is
// exactly the journaled state: it is not while a batch is in flight —
// kv writes captured or events buffered but not journaled, a replica
// batch journaled but not applied, or the batch whose append stopped
// the store. It runs as the kv store's capture callback, so no kv write
// is in progress.
func (s *Store) position() (uint64, bool) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	tail := s.changeSeq
	if s.jn != nil {
		tail = s.jn.Tail()
	}
	return tail, s.jnErr == nil && len(s.evBuf) == 0 && len(s.capPuts) == 0 &&
		len(s.capDels) == 0 && s.changeSeq == tail
}

// checkpoint writes the kv image as the checkpoint at the journal tail,
// then lets retention drop what it covers. It is declined while the
// image is not exactly the journaled state (see position), and the next
// append retries.
func (s *Store) checkpoint() {
	s.step("checkpoint.staging")
	idle := false
	err := s.kv.Checkpoint(func() (w uint64, ok bool) {
		w, idle = s.position()
		return w, idle
	})
	if err == nil && idle {
		s.step("checkpoint.renamed")
		err = s.jn.SetCovered(s.kv.Watermark())
	}
	if err != nil || idle {
		// A declined attempt says nothing about an earlier failure.
		s.evMu.Lock()
		s.ckErr = err
		s.evMu.Unlock()
	}
}

// step marks a step of a checkpoint or an import after which a crash
// leaves a distinct state on disk; see onStep.
func (s *Store) step(name string) {
	if s.onStep != nil {
		s.onStep(name)
	}
}

func (s *Store) deliver(evs []ChangeEvent) {
	if len(evs) == 0 {
		return
	}
	s.hookMu.RLock()
	subs := s.subs
	s.hookMu.RUnlock()
	for _, fn := range subs {
		fn(evs)
	}
}

// deliverFlushed delivers f's events, then waits until every earlier
// flush is delivered: the mutation's events may have been carried by an
// earlier flush still being delivered on another goroutine, and it must
// not return before they are. It then marks f delivered.
func (s *Store) deliverFlushed(f flushed) {
	s.deliver(f.evs)
	if f.prev != nil {
		<-f.prev
	}
	if f.done != nil {
		close(f.done)
	}
}

// writable returns the journal failure that stopped the store, if any.
func (s *Store) writable() error {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.jnErr
}

// scoped runs one mutation. Its events and kv writes are journaled as
// one record and delivered as one batch when fn returns, and only then
// does the mutation return — unless it runs inside the caller's own
// Batched scope, whose record carries them instead. A mutation from
// another goroutine waits for an open scope to finish first. Every
// exported mutator is one scope; mutators never call each other's
// scopes, so a mutation is one batch. It returns the journal's failure
// when there is one, else fn's error.
func (s *Store) scoped(fn func() error) error {
	if s.nested() {
		return fn()
	}
	f, err := s.journaled(false, fn)
	s.deliverFlushed(f)
	return err
}

// journaled runs fn on a writable store under the scope lock — shared
// for one mutation, exclusive for a Batched scope — and journals what it
// wrote before the lock is released. It returns the flush for delivery,
// which happens after the lock is released.
func (s *Store) journaled(exclusive bool, fn func() error) (flushed, error) {
	if exclusive {
		s.scope.Lock()
		defer s.scope.Unlock()
	} else {
		s.scope.RLock()
		defer s.scope.RUnlock()
	}
	defer s.checkpointIfDue()
	if err := s.writable(); err != nil {
		return flushed{}, err
	}
	err := fn()
	f, ferr := s.flushEvents()
	if ferr != nil {
		return f, ferr
	}
	return f, err
}

// nested reports whether the caller runs inside the open Batched scope.
func (s *Store) nested() bool {
	o := s.owner.Load()
	return o != 0 && o == threadID()
}

// Batched runs fn with the journal append and change-event delivery
// deferred, and journals and delivers one coalesced batch when fn
// returns — the bulk-ingest path: loading N entities costs one journal
// record and a single event delivery (one incremental engine repair)
// instead of N, and a crash inside fn leaves none of its writes on disk.
// The batch is journaled and delivered even when fn errors: earlier
// writes in the batch are in memory. Nested Batched calls coalesce into
// the outermost one. fn must make its writes on the calling goroutine:
// writes from other goroutines wait until the scope has journaled its
// batch, and then each is journaled on its own. Subscribers never
// observe a partial batch — delivery happens only after fn returned, so
// all of the batch's writes are visible in the store by then.
func (s *Store) Batched(fn func() error) error {
	if s.nested() {
		return fn()
	}
	f, err := s.journaled(true, func() error {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		s.owner.Store(threadID())
		defer s.owner.Store(0)
		return fn()
	})
	s.deliverFlushed(f)
	return err
}

// wrapKV wraps a kv store whose image is complete — in memory, or
// recovered to its journal's tail. A nil clock uses the system clock.
func wrapKV(kv *kvstore.Store, clock Clock) *Store {
	if clock == nil {
		clock = SystemClock
	}
	s := &Store{kv: kv, clock: clock}
	// Recover the sequence counter from storage.
	if raw, err := kv.Get(kSeq); err == nil {
		var seq uint64
		if json.Unmarshal(raw, &seq) == nil {
			s.seq = seq
		}
	}
	return s
}

// Open opens a social store at dir ("" = in-memory). Durable stores get
// a change journal with default retention; use OpenJournaled to tune it.
func Open(dir string, clock Clock) (*Store, error) {
	return OpenJournaled(dir, clock, journal.Options{})
}

// OpenJournaled opens a social store at dir with explicit journal
// retention options. A durable store keeps two things on disk: the
// change journal at dir/journal, its only log, and the kv store's
// checkpoint, which covers the journal up to a position W. Open loads
// the checkpoint and replays the journal records past W, so a restart
// costs at most the retained journal. The change-event sequence resumes
// from the journal tail (so delta watermarks and journal offsets agree
// across restarts), and the journal is the feed replication followers
// tail. In-memory stores (dir == "") have no journal.
func OpenJournaled(dir string, clock Clock, jopts journal.Options) (*Store, error) {
	if dir == "" {
		kv, err := kvstore.Open("")
		if err != nil {
			return nil, err
		}
		return wrapKV(kv, clock), nil
	}
	jn, err := journal.Open(filepath.Join(dir, "journal"), jopts)
	if err != nil {
		return nil, err
	}
	kv, err := kvstore.OpenLogged(dir, jn)
	if err != nil {
		jn.Close()
		return nil, err
	}
	if err := recoverImage(kv, jn); err != nil {
		kv.Close()
		jn.Close()
		return nil, err
	}
	s := wrapKV(kv, clock)
	s.jn = jn
	// Resume the change sequence where the journal left off: events
	// emitted after a restart must not collide with persisted offsets
	// (a fresh-started counter would make journal offsets and delta
	// watermarks disagree).
	s.changeSeq = jn.Tail()
	// Recover the epoch from the last journal record: after a restart
	// the store must not journal (or accept) batches below the term it
	// last wrote under, or a resurrected deposed leader would slip past
	// the fence. The record whose Last equals the tail is always
	// addressable (retention never drops the active segment).
	if tail := jn.Tail(); tail > 0 {
		if recs, err := jn.ReadFrom(tail-1, 1); err == nil && len(recs) > 0 {
			var rb ReplicationBatch
			if json.Unmarshal(recs[len(recs)-1].Data, &rb) == nil {
				s.epoch = rb.Epoch
			}
		}
	}
	// Capture every committed kv write into the in-flight batch buffer;
	// journalLocked drains it when the batch's events are journaled.
	kv.SetWriteHook(func(key string, val []byte, del bool) {
		s.evMu.Lock()
		if del {
			if s.capDels == nil {
				s.capDels = map[string]bool{}
			}
			s.capDels[key] = true
			delete(s.capPuts, key)
		} else {
			if s.capPuts == nil {
				s.capPuts = map[string][]byte{}
			}
			s.capPuts[key] = append([]byte(nil), val...)
			delete(s.capDels, key)
		}
		s.evMu.Unlock()
	})
	return s, nil
}

// recoverImage brings the kv image Open loaded to the journal tail: it
// replays every journal record past the checkpoint through the quiet
// apply path. A journal that does not continue the checkpoint, or a
// record that does not decode, fails: either would lose writes.
func recoverImage(kv *kvstore.Store, jn *journal.Journal) error {
	w := kv.Watermark()
	oldest, tail, _ := jn.Stats()
	if tail < w {
		return fmt.Errorf("social: checkpoint covers the journal to %d, but the journal ends at %d", w, tail)
	}
	recs, err := jn.ReadFrom(w, 0)
	if errors.Is(err, journal.ErrCompacted) {
		return fmt.Errorf("social: checkpoint covers the journal to %d, but it starts at %d: records %d..%d are missing", w, oldest, w+1, oldest-1)
	}
	if err != nil {
		return err
	}
	for _, rec := range recs {
		rb, err := decodeBatch(rec)
		if err != nil {
			return err
		}
		if err := kv.ApplyQuiet(rb.kvBatch()); err != nil {
			return err
		}
	}
	return jn.SetCovered(w)
}

// ImageBytes reports the memory the kv store's image holds (see
// kvstore.Store.Bytes).
func (s *Store) ImageBytes() int { return s.kv.Bytes() }

// Close waits for a running checkpoint, then releases the underlying
// storage and the change journal.
func (s *Store) Close() error {
	s.scope.Lock() // no mutation is left to start a checkpoint
	s.ckWG.Wait()
	s.scope.Unlock()
	err := s.kv.Close()
	if s.jn != nil {
		if jerr := s.jn.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

func (s *Store) now() time.Time { return s.clock() }

func (s *Store) putJSON(key string, v interface{}) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("social: marshal %s: %w", key, err)
	}
	return s.kv.Put(key, raw)
}

func (s *Store) getJSON(key string, v interface{}) error {
	raw, err := s.kv.Get(key)
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("social: unmarshal %s: %w", key, err)
	}
	return nil
}

// nextSeq allocates a monotone sequence number and persists the counter.
func (s *Store) nextSeq() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	raw, _ := json.Marshal(s.seq)
	if err := s.kv.Put(kSeq, raw); err != nil {
		return 0, err
	}
	return s.seq, nil
}

func seqKey(seq uint64) string { return fmt.Sprintf("%016x", seq) }

// --- Users -----------------------------------------------------------------

// PutUser creates or updates a user profile.
func (s *Store) PutUser(u User) error {
	if u.ID == "" {
		return fmt.Errorf("%w: user ID empty", ErrInvalid)
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityUser, u.ID)
		return s.putJSON(pUser+u.ID, u)
	})
}

// User fetches a user by ID.
func (s *Store) User(id string) (User, error) {
	var u User
	err := s.getJSON(pUser+id, &u)
	return u, err
}

// HasUser reports whether the user exists.
func (s *Store) HasUser(id string) bool { return s.kv.Has(pUser + id) }

// Users returns all user IDs in sorted order.
func (s *Store) Users() []string { return s.stripPrefix(pUser) }

// UsersN returns up to n user IDs in sorted order (n <= 0 means all) —
// the paginated read path, which stops scanning at the page bound
// instead of materializing the whole table.
func (s *Store) UsersN(n int) []string { return s.stripPrefixN(pUser, n) }

// --- Conferences & sessions --------------------------------------------------

// PutConference creates or updates a conference.
func (s *Store) PutConference(c Conference) error {
	if c.ID == "" {
		return fmt.Errorf("%w: conference ID empty", ErrInvalid)
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityConference, c.ID)
		return s.putJSON(pConf+c.ID, c)
	})
}

// Conference fetches a conference by ID.
func (s *Store) Conference(id string) (Conference, error) {
	var c Conference
	err := s.getJSON(pConf+id, &c)
	return c, err
}

// Conferences returns all conference IDs.
func (s *Store) Conferences() []string { return s.stripPrefix(pConf) }

// PutSession creates or updates a session. Its conference must exist.
func (s *Store) PutSession(sess Session) error {
	if sess.ID == "" {
		return fmt.Errorf("%w: session ID empty", ErrInvalid)
	}
	if !s.kv.Has(pConf + sess.ConferenceID) {
		return fmt.Errorf("%w: conference %q", ErrNotFound, sess.ConferenceID)
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntitySession, sess.ID, sess.ConferenceID)
		if err := s.putJSON(pSession+sess.ID, sess); err != nil {
			return err
		}
		return s.kv.Put(pSessConf+sess.ConferenceID+"/"+sess.ID, nil)
	})
}

// Session fetches a session by ID.
func (s *Store) Session(id string) (Session, error) {
	var sess Session
	err := s.getJSON(pSession+id, &sess)
	return sess, err
}

// SessionsOf returns the session IDs of a conference.
func (s *Store) SessionsOf(confID string) []string {
	return s.stripPrefix(pSessConf + confID + "/")
}

// --- Papers & presentations --------------------------------------------------

// PutPaper creates or updates a paper. Authors must exist as users.
func (s *Store) PutPaper(p Paper) error {
	if p.ID == "" {
		return fmt.Errorf("%w: paper ID empty", ErrInvalid)
	}
	if len(p.Authors) == 0 {
		return fmt.Errorf("%w: paper %q has no authors", ErrInvalid, p.ID)
	}
	for _, a := range p.Authors {
		if !s.kv.Has(pUser + a) {
			return fmt.Errorf("%w: author %q", ErrNotFound, a)
		}
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityPaper, p.ID, p.Authors...)
		if err := s.putJSON(pPaper+p.ID, p); err != nil {
			return err
		}
		b := kvstore.NewBatch()
		if p.ConferenceID != "" {
			b.Put(pPaperConf+p.ConferenceID+"/"+p.ID, nil)
		}
		if p.SessionID != "" {
			b.Put(pPaperSess+p.SessionID+"/"+p.ID, nil)
		}
		for _, a := range p.Authors {
			b.Put(pPaperAuth+a+"/"+p.ID, nil)
		}
		return s.kv.Apply(b)
	})
}

// Paper fetches a paper by ID.
func (s *Store) Paper(id string) (Paper, error) {
	var p Paper
	err := s.getJSON(pPaper+id, &p)
	return p, err
}

// Papers returns all paper IDs.
func (s *Store) Papers() []string { return s.stripPrefix(pPaper) }

// PapersOfConference returns the paper IDs published at a conference.
func (s *Store) PapersOfConference(confID string) []string {
	return s.stripPrefix(pPaperConf + confID + "/")
}

// PapersOfSession returns the paper IDs presented in a session.
func (s *Store) PapersOfSession(sessID string) []string {
	return s.stripPrefix(pPaperSess + sessID + "/")
}

// PapersOfAuthor returns the paper IDs authored by a user.
func (s *Store) PapersOfAuthor(userID string) []string {
	return s.stripPrefix(pPaperAuth + userID + "/")
}

// PutPresentation uploads or updates presentation content. Its paper and
// owner must exist.
func (s *Store) PutPresentation(pr Presentation) error {
	if pr.ID == "" {
		return fmt.Errorf("%w: presentation ID empty", ErrInvalid)
	}
	if !s.kv.Has(pPaper + pr.PaperID) {
		return fmt.Errorf("%w: paper %q", ErrNotFound, pr.PaperID)
	}
	if !s.kv.Has(pUser + pr.Owner) {
		return fmt.Errorf("%w: user %q", ErrNotFound, pr.Owner)
	}
	if pr.Updated == 0 {
		pr.Updated = s.now().Unix()
	}
	return s.scoped(func() error {
		defer s.emit(ChangePut, EntityPresentation, pr.ID, pr.Owner, pr.PaperID)
		if err := s.putJSON(pPres+pr.ID, pr); err != nil {
			return err
		}
		b := kvstore.NewBatch().
			Put(pPresPaper+pr.PaperID+"/"+pr.ID, nil).
			Put(pPresOwner+pr.Owner+"/"+pr.ID, nil)
		return s.kv.Apply(b)
	})
}

// Presentation fetches presentation content by ID.
func (s *Store) Presentation(id string) (Presentation, error) {
	var pr Presentation
	err := s.getJSON(pPres+id, &pr)
	return pr, err
}

// PresentationsOfPaper returns presentation IDs attached to a paper.
func (s *Store) PresentationsOfPaper(paperID string) []string {
	return s.stripPrefix(pPresPaper + paperID + "/")
}

// PresentationsOfUser returns presentation IDs uploaded by a user.
func (s *Store) PresentationsOfUser(userID string) []string {
	return s.stripPrefix(pPresOwner + userID + "/")
}

// stripPrefix lists keys under prefix with the prefix removed.
func (s *Store) stripPrefix(prefix string) []string {
	return s.stripPrefixN(prefix, 0)
}

// stripPrefixN lists up to n keys under prefix with the prefix removed
// (n <= 0 means all), ending the scan once n is reached. It reads keys
// only: index entries carry no value and entity bodies are not wanted.
func (s *Store) stripPrefixN(prefix string, n int) []string {
	var ids []string
	s.kv.AscendKeys(prefix, "", func(k string) bool {
		ids = append(ids, k[len(prefix):])
		return n <= 0 || len(ids) < n
	})
	return ids
}
