package social

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
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
	pUser       = "user/"
	pConf       = "conf/"
	pSession    = "session/"
	pSessConf   = "sessconf/" // conference -> session
	pPaper      = "paper/"
	pPaperConf  = "paperconf/" // conference -> paper
	pPaperSess  = "papersess/" // session -> paper
	pPaperAuth  = "paperauth/" // author -> paper
	pPres       = "pres/"
	pPresPaper  = "prespaper/" // paper -> presentation
	pPresOwner  = "presowner/" // owner -> presentation
	pConn       = "conn/"      // sorted pair
	pConnIdx    = "connidx/"   // user -> other
	pFollow     = "follow/"    // follower -> followee
	pFollower   = "followr/"   // followee -> follower
	pCheckin    = "checkin/"   // session -> user
	pCheckinU   = "checkinu/"  // user -> session
	pQuestion   = "question/"
	pQTarget    = "qtarget/" // target -> question
	pQAuthor    = "qauthor/" // author -> question
	pAnswer     = "answer/"
	pAQuestion  = "aq/" // question -> answer
	pComment    = "comment/"
	pCTarget    = "ctarget/" // target -> comment
	pWorkpad    = "workpad/"
	pWPOwner    = "wpowner/"  // owner -> workpad
	pWPActive   = "wpactive/" // owner -> active workpad id
	pCollection = "collection/"
	pEvent      = "event/"
	pEvActor    = "evactor/"
	pEvTag      = "evtag/"
	kSeq        = "meta/seq"
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
	// order).
	evMu      sync.Mutex
	changeSeq uint64
	evBuf     []ChangeEvent
	// epoch is the leadership term stamped into every journaled batch —
	// the election layer's fencing token. It only ever rises (SetEpoch)
	// and is recovered from the last journal record on reopen. Zero
	// means unmanaged (no election): batches carry no epoch and fencing
	// is off, which is exactly the pre-election behavior.
	epoch uint64

	// jn, when non-nil, durably journals every delivered change batch
	// together with the raw kv writes that produced it — the
	// replication feed. capPuts/capDels accumulate the kv image of the
	// in-flight batch (filled by the kvstore write hook).
	jn      *journal.Journal
	capPuts map[string][]byte
	capDels map[string]bool
	jnErr   error // last journal-append failure (nil when healthy)

	// batching defers event delivery inside Batched (and inside each
	// multi-step mutator): the coalesced batch is delivered once when
	// the outermost scope finishes.
	batching atomic.Int32
}

// OnChange subscribes to the store's typed change log. After every
// successful mutation — including writes that bypass the Platform
// wrappers and hit the store directly — the subscriber receives the
// batch of ChangeEvents the mutation emitted; a Batched pass delivers
// exactly one coalesced batch for all its writes. Subscribers must be
// fast and must not mutate the store (reads are fine: the events carry
// IDs, not entity bodies, so consumers refetch what they need).
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

// emit appends typed change events to the log. Inside a batch (or a
// multi-step mutator scope) delivery is deferred and coalesced;
// otherwise subscribers receive the events immediately as one batch.
// Events are emitted even when a later step of the mutator failed:
// earlier writes may have persisted, and a spurious event only costs a
// small redundant delta repair, whereas a missed one hides persisted
// data from the knowledge services until the next compaction.
func (s *Store) emit(kind ChangeKind, entity EntityType, id string, refs ...string) {
	s.evMu.Lock()
	s.changeSeq++
	ev := ChangeEvent{Seq: s.changeSeq, Kind: kind, EntityType: entity, ID: id, Refs: refs}
	if s.batching.Load() > 0 {
		s.evBuf = append(s.evBuf, ev)
		s.evMu.Unlock()
		return
	}
	evs := []ChangeEvent{ev}
	s.journalLocked(evs)
	s.evMu.Unlock()
	s.deliver(evs)
}

// flushEvents delivers the buffered batch, if any.
func (s *Store) flushEvents() {
	s.evMu.Lock()
	buf := s.evBuf
	s.evBuf = nil
	s.journalLocked(buf)
	s.evMu.Unlock()
	if len(buf) > 0 {
		s.deliver(buf)
	}
}

// journalLocked durably appends the batch about to be delivered — its
// typed events plus the captured kv write image — to the change
// journal. Called under evMu so journal records are strictly ordered by
// sequence. A journal failure must not fail the write (the data itself
// is already committed to the kv WAL): it is recorded for healthz and
// the journal resumes at the next batch.
func (s *Store) journalLocked(evs []ChangeEvent) {
	if s.jn == nil {
		return
	}
	if len(evs) == 0 {
		// kv writes without change events (counter bumps riding a later
		// batch) stay buffered until an event batch carries them.
		return
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
	if err != nil {
		s.jnErr = fmt.Errorf("social: encode journal batch: %w", err)
		return
	}
	if err := s.jn.Append(journal.Record{First: rb.First, Last: rb.Last, Data: data}); err != nil {
		s.jnErr = fmt.Errorf("social: journal append: %w", err)
		return
	}
	s.jnErr = nil
}

func (s *Store) deliver(evs []ChangeEvent) {
	s.hookMu.RLock()
	subs := s.subs
	s.hookMu.RUnlock()
	for _, fn := range subs {
		fn(evs)
	}
}

// scoped runs fn with event delivery deferred and delivers the
// coalesced batch once when the outermost scope finishes. Every
// multi-step mutator wraps itself in a scope so it emits exactly one
// batch; Batched exposes the same mechanism publicly.
func (s *Store) scoped(fn func() error) error {
	s.batching.Add(1)
	defer func() {
		if s.batching.Add(-1) == 0 {
			s.flushEvents()
		}
	}()
	return fn()
}

// Batched runs fn with change-event delivery deferred and delivers one
// coalesced batch when fn returns — the bulk-ingest path: loading N
// entities costs a single event delivery (one incremental engine
// repair) instead of N. The batch is delivered even when fn errors:
// earlier writes in the batch may have persisted. Nested Batched calls
// coalesce into the outermost one. Concurrent non-batched writers may
// also have their events folded into the batch's final delivery, which
// is harmless: events describe persisted state and consumers refetch
// it. Subscribers never observe a partial batch — delivery happens only
// after the outermost fn returned, so all of the batch's writes are
// visible in the store by then.
func (s *Store) Batched(fn func() error) error {
	return s.scoped(fn)
}

// NewStore wraps a kvstore. A nil clock uses the system clock.
func NewStore(kv *kvstore.Store, clock Clock) *Store {
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
// retention options. On durable stores every delivered change batch is
// appended — events plus the raw kv writes that produced them — to the
// journal at dir/journal, the change-event sequence resumes from the
// journal tail (so delta watermarks and journal offsets agree across
// restarts), and the journal is the feed replication followers tail.
// In-memory stores (dir == "") have no journal.
func OpenJournaled(dir string, clock Clock, jopts journal.Options) (*Store, error) {
	kv, err := kvstore.Open(dir)
	if err != nil {
		return nil, err
	}
	s := NewStore(kv, clock)
	if dir == "" {
		return s, nil
	}
	jn, err := journal.Open(filepath.Join(dir, "journal"), jopts)
	if err != nil {
		kv.Close()
		return nil, err
	}
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
	// journalLocked drains it when the batch's events are delivered.
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

// Close releases the underlying storage and the change journal.
func (s *Store) Close() error {
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
	defer s.emit(ChangePut, EntityUser, u.ID)
	return s.putJSON(pUser+u.ID, u)
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
	defer s.emit(ChangePut, EntityConference, c.ID)
	return s.putJSON(pConf+c.ID, c)
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
	defer s.emit(ChangePut, EntitySession, sess.ID, sess.ConferenceID)
	if err := s.putJSON(pSession+sess.ID, sess); err != nil {
		return err
	}
	return s.kv.Put(pSessConf+sess.ConferenceID+"/"+sess.ID, nil)
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
	defer s.emit(ChangePut, EntityPresentation, pr.ID, pr.Owner, pr.PaperID)
	if err := s.putJSON(pPres+pr.ID, pr); err != nil {
		return err
	}
	b := kvstore.NewBatch().
		Put(pPresPaper+pr.PaperID+"/"+pr.ID, nil).
		Put(pPresOwner+pr.Owner+"/"+pr.ID, nil)
	return s.kv.Apply(b)
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
