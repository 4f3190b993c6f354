// Package client is the Go SDK for the Hive v1 REST API. It speaks the
// typed contract of the hive/api package end-to-end: every endpoint has
// a typed method, list endpoints return api.Page envelopes whose
// NextCursor tokens feed the next call, non-2xx responses come back as
// *api.Error (stable machine-readable codes), and an optional ETag
// cache revalidates knowledge reads with If-None-Match so unchanged
// snapshots cost a 304 instead of a recompute.
//
//	c := client.New("http://localhost:8080", client.WithETagCache())
//	page, err := c.Users(ctx, "", 100)        // first page
//	page, err = c.Users(ctx, page.NextCursor, 100)
//
// Against an elected replica set, construct the client with WithCluster
// and it survives failover without caller changes: a not_leader
// rejection redirects it to the hinted leader, a dead or hint-less node
// makes it re-resolve the leader via GET /healthz across the configured
// peers, and requests retry with capped backoff until the new leader
// accepts them.
package client

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"hive/api"
	"hive/internal/metrics"
)

// Client talks to one Hive server (or, with WithCluster, to whichever
// member of a replica set currently leads). It keeps no shard map: a
// sharded server places every write on its owner's shard itself.
type Client struct {
	mu   sync.RWMutex
	base string // current target; moves on failover when cluster is set

	cluster []string // seed peers for leader re-resolution; nil disables failover
	hc      *http.Client

	etags *etagCache // nil unless WithETagCache

	requests  atomic.Int64
	cacheHits atomic.Int64
	redirects atomic.Int64

	// lastTrace holds the trace ID stamped on the most recent logical
	// call — one ID per call, replayed verbatim across failover retries,
	// so smoke tests and callers can correlate a call with the
	// server-side access log and debug/traces ring.
	lastTrace atomic.Value // string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithETagCache enables conditional GETs on knowledge endpoints: the
// client remembers each URL's ETag and body, sends If-None-Match, and
// serves 304 revalidations from the cache.
func WithETagCache() Option {
	return func(c *Client) { c.etags = &etagCache{entries: map[string]etagEntry{}} }
}

// WithCluster makes the client cluster-aware: peers seed leader
// re-resolution, and every request gains the failover retry loop
// (follow not_leader hints, re-resolve via GET /healthz when the hint
// is stale or the target is unreachable, capped backoff between
// attempts). The base URL passed to New may be any member — the client
// finds the leader on first rejection.
func WithCluster(peers ...string) Option {
	return func(c *Client) {
		c.cluster = append([]string(nil), peers...)
		if c.cluster == nil {
			c.cluster = []string{} // non-nil enables failover even with zero peers
		}
	}
}

// New builds a client for a server base URL (e.g. "http://host:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{base: base, hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Stats reports how many requests were issued and how many knowledge
// reads were served from the ETag cache via a 304.
func (c *Client) Stats() (requests, cacheHits int64) {
	return c.requests.Load(), c.cacheHits.Load()
}

// Redirects counts leader changes the client followed — not_leader
// hints adopted plus leaders re-resolved via healthz. Writes are placed
// on their owner's shard by the server, so a sharded deployment adds
// none.
func (c *Client) Redirects() int64 { return c.redirects.Load() }

// LastTraceID returns the X-Hive-Trace-Id the client minted for its
// most recent logical call ("" before the first). Every retry of that
// call carried the same ID, so it identifies the call end-to-end no
// matter how many nodes it touched.
func (c *Client) LastTraceID() string {
	s, _ := c.lastTrace.Load().(string)
	return s
}

// Base returns the URL the client currently targets. With WithCluster
// it moves as the client follows the leader.
func (c *Client) Base() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base
}

func (c *Client) setBase(u string) {
	c.mu.Lock()
	c.base = u
	c.mu.Unlock()
}

type etagEntry struct {
	tag  string
	body []byte
}

// maxETagEntries bounds the cache: one (tag, body) pair per distinct
// URL would otherwise grow for the client's lifetime (every user,
// query and cursor permutation is its own key).
const maxETagEntries = 1024

type etagCache struct {
	mu      sync.Mutex
	entries map[string]etagEntry
}

func (ec *etagCache) get(key string) (etagEntry, bool) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	e, ok := ec.entries[key]
	return e, ok
}

func (ec *etagCache) put(key string, e etagEntry) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if _, exists := ec.entries[key]; !exists && len(ec.entries) >= maxETagEntries {
		// Evict an arbitrary entry (map order): cheap, and a wrongly
		// evicted URL merely pays one full re-fetch.
		for k := range ec.entries {
			delete(ec.entries, k)
			break
		}
	}
	ec.entries[key] = e
}

// --- Transport core -----------------------------------------------------------

// apiErrorFrom decodes a non-2xx body into *api.Error, synthesizing an
// envelope when the body isn't one (proxies, panics mid-stream).
func apiErrorFrom(status int, body []byte) *api.Error {
	var env api.ErrorResponse
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		env.Error.HTTPStatus = status
		return env.Error
	}
	return &api.Error{
		Code:       api.CodeInternal,
		Message:    fmt.Sprintf("http %d: %s", status, bytes.TrimSpace(body)),
		HTTPStatus: status,
	}
}

// Failover retry tuning: enough attempts to ride out an election (a
// couple of lease TTLs) without retrying forever, backoff capped low so
// the first post-promotion attempt lands promptly.
const (
	failoverAttempts   = 8
	failoverBackoffMin = 100 * time.Millisecond
	failoverBackoffMax = time.Second
)

// do issues one request and decodes the JSON response into out (may be
// nil). conditional enables the ETag cache for this GET. With
// WithCluster the request is retried across leader changes; the body is
// marshaled once up front so every attempt replays identical bytes.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, in, out any, conditional bool) error {
	// One trace ID per logical call, minted here so every failover
	// retry and redirect below replays the same ID.
	trace := metrics.NewTraceID()
	c.lastTrace.Store(trace)
	var raw []byte
	if in != nil {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	if c.cluster == nil {
		return c.doOnce(ctx, method, c.Base(), path, q, trace, raw, in != nil, out, conditional)
	}

	backoff := failoverBackoffMin
	var lastErr error
	for attempt := 0; attempt < failoverAttempts; attempt++ {
		base := c.Base()
		err := c.doOnce(ctx, method, base, path, q, trace, raw, in != nil, out, conditional)
		if err == nil {
			return nil
		}
		lastErr = err

		// Decide whether (and where) to retry. Leadership errors and
		// transport failures are failover's business on any method;
		// 503-class transients (server timeout, load shedding) are
		// retried only on idempotent reads — re-issuing a write that may
		// have applied would double it. Everything else — a not_found or
		// invalid_argument, a quorum_unavailable on a write — is the same
		// on every node and on every attempt, so it surfaces immediately
		// as the typed *api.Error for the caller to act on.
		var ae *api.Error
		switch {
		case errors.As(err, &ae) && ae.Code == api.CodeNotLeader:
			if hint, _ := ae.Details["leader"].(string); hint != "" && hint != base {
				c.setBase(hint)
			} else {
				// Hint missing or pointing back at the rejecting node:
				// it is stale. Ask the replica set instead.
				c.resolveLeader(ctx, base)
			}
		case errors.As(err, &ae) && method == http.MethodGet && retriableRead(ae):
			// Transient overload on a read: back off and retry in place
			// (the switch below only skips the backoff when the target
			// moved, which a 503 doesn't cause).
		case errors.As(err, &ae):
			return err // typed API error: not failover's to retry
		default:
			// Transport-level failure (dead node, reset mid-response).
			// The old leader dying looks exactly like this; re-resolve
			// through the peers.
			if ctx.Err() != nil {
				return err
			}
			c.resolveLeader(ctx, base)
		}

		// Retry immediately only when the target actually moved — during
		// an election gap every node still names the old leader, and
		// retrying it hot would burn the attempt budget before the lease
		// even expires.
		if moved := c.Base(); moved != base {
			c.redirects.Add(1)
			continue
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > failoverBackoffMax {
			backoff = failoverBackoffMax
		}
	}
	return lastErr
}

// retriableRead reports whether a typed API error on an idempotent read
// is a transient the retry loop may absorb: the server-side timeout and
// load-shed rejections, plus any other 503 a proxy or middleware
// produced. quorum_unavailable is also a 503 but belongs to the write
// path; a read can never legitimately carry it, so it is excluded to
// keep the contract sharp.
func retriableRead(ae *api.Error) bool {
	if ae.Code == api.CodeQuorumUnavailable {
		return false
	}
	return ae.Code == api.CodeTimeout || ae.Code == api.CodeOverloaded ||
		ae.HTTPStatus == http.StatusServiceUnavailable
}

// resolveLeader asks the replica set who leads: GET /healthz against
// the current target first, then each configured peer, reading the
// node's replication block (leader_url, role). Adopts and reports the
// first answer naming a leader. A node that is itself the leader but
// hasn't published a URL (standalone) counts as the answer. Healthz, not /cluster: the cluster endpoint
// also probes every peer of the answering node, and one slow peer there
// would cost each re-resolution its whole probe budget.
func (c *Client) resolveLeader(ctx context.Context, current string) bool {
	candidates := make([]string, 0, len(c.cluster)+1)
	candidates = append(candidates, current)
	for _, p := range c.cluster {
		if p != current {
			candidates = append(candidates, p)
		}
	}
	for _, u := range candidates {
		var h api.Health
		if err := c.doOnce(ctx, http.MethodGet, u, "/api/v1/healthz", nil, "", nil, false, &h, false); err != nil {
			continue
		}
		leader := h.Replication.LeaderURL
		if leader == "" && h.Replication.Role == api.RoleLeader {
			leader = u // a leader that doesn't advertise a URL: reach it where we did
		}
		if leader == "" {
			continue // election unresolved on this node; ask the next
		}
		c.setBase(leader)
		return true
	}
	return false
}

// doOnce issues one request against an explicit base URL; a non-empty
// trace is sent as its X-Hive-Trace-Id.
func (c *Client) doOnce(ctx context.Context, method, base, path string, q url.Values, trace string, raw []byte, hasBody bool, out any, conditional bool) error {
	u := base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(api.TraceHeader, trace)
	}
	// Asked for explicitly, gzip is left to readBody to inflate through a
	// pooled reader; net/http would allocate a fresh one per response.
	req.Header.Set("Accept-Encoding", "gzip")
	var cached etagEntry
	useCache := conditional && c.etags != nil && method == http.MethodGet
	if useCache {
		if e, ok := c.etags.get(u); ok {
			cached = e
			req.Header.Set("If-None-Match", e.tag)
		}
	}

	c.requests.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	got, err := readBody(resp)
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}

	switch {
	case resp.StatusCode == http.StatusNotModified && useCache && cached.tag != "":
		c.cacheHits.Add(1)
		got = cached.body
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if useCache {
			if tag := resp.Header.Get("ETag"); tag != "" {
				c.etags.put(u, etagEntry{tag: tag, body: got})
			}
		}
	default:
		return apiErrorFrom(resp.StatusCode, got)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(got, out); err != nil {
		return fmt.Errorf("client: decode %s %s: %w", method, path, err)
	}
	return nil
}

// inflater is a gzip reader with the buffer it reads through, reused
// across responses.
type inflater struct {
	br *bufio.Reader
	zr gzip.Reader
}

var inflaters = sync.Pool{New: func() any { return &inflater{br: bufio.NewReader(nil)} }}

// readBody reads a response body, inflating it when it is gzip'd.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.Header.Get("Content-Encoding") != "gzip" {
		return io.ReadAll(resp.Body)
	}
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.br.Reset(resp.Body)
	defer in.br.Reset(nil)
	if err := in.zr.Reset(in.br); err != nil {
		return nil, err
	}
	return io.ReadAll(&in.zr)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	return c.do(ctx, http.MethodPost, path, nil, in, out, false)
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, q, nil, out, false)
}

// getKnowledge is a conditional GET: revalidated via the ETag cache
// when enabled.
func (c *Client) getKnowledge(ctx context.Context, path string, q url.Values, out any) error {
	return c.do(ctx, http.MethodGet, path, q, nil, out, true)
}

// pageQuery folds cursor/limit into query parameters (zero limit lets
// the server default apply).
func pageQuery(q url.Values, cursor string, limit int) url.Values {
	if q == nil {
		q = url.Values{}
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	return q
}

// --- Health & admin -----------------------------------------------------------

// Healthz reports server liveness, snapshot freshness and, on a
// sharded deployment, one row per shard.
func (c *Client) Healthz(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.get(ctx, "/api/v1/healthz", nil, &h)
	return h, err
}

// Refresh requests a knowledge-snapshot rebuild; wait blocks until the
// new snapshot is live.
func (c *Client) Refresh(ctx context.Context, wait bool) error {
	q := url.Values{}
	if wait {
		q.Set("wait", "true")
	}
	return c.do(ctx, http.MethodPost, "/api/v1/admin/refresh", q, nil, nil, false)
}

// --- Mutations ----------------------------------------------------------------

// CreateUser registers or updates a researcher profile.
func (c *Client) CreateUser(ctx context.Context, u api.User) error {
	return c.post(ctx, "/api/v1/users", u, nil)
}

// CreateConference registers a conference edition.
func (c *Client) CreateConference(ctx context.Context, conf api.Conference) error {
	return c.post(ctx, "/api/v1/conferences", conf, nil)
}

// CreateSession registers a session within a conference.
func (c *Client) CreateSession(ctx context.Context, s api.Session) error {
	return c.post(ctx, "/api/v1/sessions", s, nil)
}

// CreatePaper publishes a paper (owner-routed: the first author's
// shard).
func (c *Client) CreatePaper(ctx context.Context, p api.Paper) error {
	return c.post(ctx, "/api/v1/papers", p, nil)
}

// CreatePresentation uploads slide content for a paper.
func (c *Client) CreatePresentation(ctx context.Context, pr api.Presentation) error {
	return c.post(ctx, "/api/v1/presentations", pr, nil)
}

// Connect establishes a mutual connection between two researchers
// (owner-routed: a's shard).
func (c *Client) Connect(ctx context.Context, a, b string) error {
	return c.post(ctx, "/api/v1/connections", api.ConnectRequest{A: a, B: b}, nil)
}

// Follow subscribes follower to followee's activity (owner-routed: the
// follower's shard).
func (c *Client) Follow(ctx context.Context, follower, followee string) error {
	return c.post(ctx, "/api/v1/follows", api.FollowRequest{Follower: follower, Followee: followee}, nil)
}

// CheckIn records session attendance (owner-routed: the attendee's
// shard).
func (c *Client) CheckIn(ctx context.Context, sessionID, userID string) error {
	return c.post(ctx, "/api/v1/checkins", api.CheckinRequest{SessionID: sessionID, UserID: userID}, nil)
}

// Ask posts a question about an entity.
func (c *Client) Ask(ctx context.Context, q api.Question) error {
	return c.post(ctx, "/api/v1/questions", q, nil)
}

// Answer posts an answer to a question.
func (c *Client) Answer(ctx context.Context, a api.Answer) error {
	return c.post(ctx, "/api/v1/answers", a, nil)
}

// Comment attaches a comment to an entity.
func (c *Client) Comment(ctx context.Context, cm api.Comment) error {
	return c.post(ctx, "/api/v1/comments", cm, nil)
}

// LogBrowse records that a user viewed an object (owner-routed: the
// user's shard). Browses feed activity similarity and change
// monitoring.
func (c *Client) LogBrowse(ctx context.Context, userID, object string) error {
	return c.post(ctx, "/api/v1/browses", api.BrowseRequest{UserID: userID, Object: object}, nil)
}

// CreateWorkpad creates or replaces a workpad (owner-routed).
func (c *Client) CreateWorkpad(ctx context.Context, w api.Workpad) error {
	return c.post(ctx, "/api/v1/workpads", w, nil)
}

// AddWorkpadItem drags a resource onto a workpad.
func (c *Client) AddWorkpadItem(ctx context.Context, workpadID string, item api.WorkpadItem) error {
	return c.post(ctx, "/api/v1/workpads/"+url.PathEscape(workpadID)+"/items", item, nil)
}

// ActivateWorkpad selects the user's active context (owner-routed).
func (c *Client) ActivateWorkpad(ctx context.Context, owner, workpadID string) error {
	return c.post(ctx, "/api/v1/workpads/"+url.PathEscape(workpadID)+"/activate",
		api.ActivateWorkpadRequest{Owner: owner}, nil)
}

// Batch applies a mixed array of entities in one store pass (one
// snapshot invalidation total). Elements apply in order; failures are
// reported per element in the response.
func (c *Client) Batch(ctx context.Context, entities []api.BatchEntity) (api.BatchResponse, error) {
	var out api.BatchResponse
	err := c.post(ctx, "/api/v1/batch", api.BatchRequest{Entities: entities}, &out)
	return out, err
}

// --- Entity reads -------------------------------------------------------------

// GetUser fetches a user profile.
func (c *Client) GetUser(ctx context.Context, id string) (api.User, error) {
	var u api.User
	err := c.get(ctx, "/api/v1/users/"+url.PathEscape(id), nil, &u)
	return u, err
}

// Users lists user IDs, one page at a time.
func (c *Client) Users(ctx context.Context, cursor string, limit int) (api.Page[string], error) {
	var pg api.Page[string]
	err := c.get(ctx, "/api/v1/users", pageQuery(nil, cursor, limit), &pg)
	return pg, err
}

// Attendees lists the users checked into a session.
func (c *Client) Attendees(ctx context.Context, sessionID, cursor string, limit int) (api.Page[string], error) {
	var pg api.Page[string]
	err := c.get(ctx, "/api/v1/sessions/"+url.PathEscape(sessionID)+"/attendees",
		pageQuery(nil, cursor, limit), &pg)
	return pg, err
}

// ActiveWorkpad returns the user's active workpad.
func (c *Client) ActiveWorkpad(ctx context.Context, owner string) (api.Workpad, error) {
	var w api.Workpad
	err := c.get(ctx, "/api/v1/users/"+url.PathEscape(owner)+"/workpad", nil, &w)
	return w, err
}

// Feed returns the user's real-time update feed.
func (c *Client) Feed(ctx context.Context, userID, cursor string, limit int) (api.Page[api.Event], error) {
	var pg api.Page[api.Event]
	err := c.get(ctx, "/api/v1/users/"+url.PathEscape(userID)+"/feed", pageQuery(nil, cursor, limit), &pg)
	return pg, err
}

// TagEvents returns the hashtag fan-out for a tag ("graphs13" and
// "#graphs13" are equivalent).
func (c *Client) TagEvents(ctx context.Context, tag, cursor string, limit int) (api.Page[api.Event], error) {
	var pg api.Page[api.Event]
	err := c.get(ctx, "/api/v1/tags/"+url.PathEscape(tag)+"/events", pageQuery(nil, cursor, limit), &pg)
	return pg, err
}

// --- Knowledge services (conditional GETs) ------------------------------------

// Relationship explains the relationship between two researchers.
func (c *Client) Relationship(ctx context.Context, a, b string) (api.Explanation, error) {
	var ex api.Explanation
	q := url.Values{"a": {a}, "b": {b}}
	err := c.getKnowledge(ctx, "/api/v1/relationship", q, &ex)
	return ex, err
}

// PeerRecommendations suggests new peers with evidence.
func (c *Client) PeerRecommendations(ctx context.Context, userID, cursor string, limit int) (api.Page[api.PeerRecommendation], error) {
	var pg api.Page[api.PeerRecommendation]
	err := c.getKnowledge(ctx, "/api/v1/users/"+url.PathEscape(userID)+"/recommendations/peers",
		pageQuery(nil, cursor, limit), &pg)
	return pg, err
}

// ResourceRecommendations suggests documents, optionally conditioned on
// the active workpad context.
func (c *Client) ResourceRecommendations(ctx context.Context, userID string, useContext bool, cursor string, limit int) (api.Page[api.ResourceRecommendation], error) {
	var pg api.Page[api.ResourceRecommendation]
	q := pageQuery(nil, cursor, limit)
	if !useContext {
		q.Set("context", "false")
	}
	err := c.getKnowledge(ctx, "/api/v1/users/"+url.PathEscape(userID)+"/recommendations/resources", q, &pg)
	return pg, err
}

// SuggestSessions ranks a conference's sessions for the user.
func (c *Client) SuggestSessions(ctx context.Context, userID, confID, cursor string, limit int) (api.Page[api.SessionSuggestion], error) {
	var pg api.Page[api.SessionSuggestion]
	q := pageQuery(url.Values{"conf": {confID}}, cursor, limit)
	err := c.getKnowledge(ctx, "/api/v1/users/"+url.PathEscape(userID)+"/sessions/suggest", q, &pg)
	return pg, err
}

// Search runs keyword search; a non-empty user makes it context-aware.
func (c *Client) Search(ctx context.Context, query, user, cursor string, limit int) (api.Page[api.SearchResult], error) {
	var pg api.Page[api.SearchResult]
	q := pageQuery(url.Values{"q": {query}}, cursor, limit)
	if user != "" {
		q.Set("user", user)
	}
	err := c.getKnowledge(ctx, "/api/v1/search", q, &pg)
	return pg, err
}

// Preview extracts the k most context-relevant snippets of a document.
func (c *Client) Preview(ctx context.Context, userID, docID string, k int) ([]api.Snippet, error) {
	var out []api.Snippet
	q := url.Values{"user": {userID}, "doc": {docID}}
	if k > 0 {
		q.Set("k", fmt.Sprint(k))
	}
	err := c.getKnowledge(ctx, "/api/v1/preview", q, &out)
	return out, err
}

// Digest produces the size-constrained summary of the user's feed.
func (c *Client) Digest(ctx context.Context, userID string, budget int) (api.Summary, error) {
	var out api.Summary
	q := url.Values{}
	if budget > 0 {
		q.Set("budget", fmt.Sprint(budget))
	}
	err := c.getKnowledge(ctx, "/api/v1/users/"+url.PathEscape(userID)+"/digest", q, &out)
	return out, err
}

// Communities returns the discovered peer communities.
func (c *Client) Communities(ctx context.Context, cursor string, limit int) (api.Page[[]string], error) {
	var pg api.Page[[]string]
	err := c.getKnowledge(ctx, "/api/v1/communities", pageQuery(nil, cursor, limit), &pg)
	return pg, err
}

// History searches the user's personal activity history.
func (c *Client) History(ctx context.Context, userID, query string, useContext bool, cursor string, limit int) (api.Page[api.HistoryEntry], error) {
	var pg api.Page[api.HistoryEntry]
	q := pageQuery(nil, cursor, limit)
	if query != "" {
		q.Set("q", query)
	}
	if useContext {
		q.Set("context", "true")
	}
	err := c.getKnowledge(ctx, "/api/v1/users/"+url.PathEscape(userID)+"/history", q, &pg)
	return pg, err
}

// ResourceRelationship explains the relationship between a user and a
// resource (paper, presentation, session).
func (c *Client) ResourceRelationship(ctx context.Context, userID, entity string) ([]api.ResourceEvidence, error) {
	var out []api.ResourceEvidence
	q := url.Values{"entity": {entity}}
	err := c.getKnowledge(ctx, "/api/v1/users/"+url.PathEscape(userID)+"/resource-relationship", q, &out)
	return out, err
}

// KnowledgePaths returns ranked weighted knowledge-base paths between
// two entities (prefix IDs with "user:", "paper:" or "session:").
func (c *Client) KnowledgePaths(ctx context.Context, a, b string, k int) ([]api.KnowledgePath, error) {
	var out []api.KnowledgePath
	q := url.Values{"a": {a}, "b": {b}}
	if k > 0 {
		q.Set("k", fmt.Sprint(k))
	}
	err := c.getKnowledge(ctx, "/api/v1/knowledge/paths", q, &out)
	return out, err
}

// ActivityChanges runs change detection over the activity stream cut
// into epochs of epochEvents events (0 takes the server's default) and
// returns one entry per epoch, oldest first.
func (c *Client) ActivityChanges(ctx context.Context, epochEvents int, cursor string, limit int) (api.Page[api.ActivityChange], error) {
	var pg api.Page[api.ActivityChange]
	q := pageQuery(nil, cursor, limit)
	if epochEvents > 0 {
		q.Set("epoch_events", fmt.Sprint(epochEvents))
	}
	err := c.getKnowledge(ctx, "/api/v1/activity/changes", q, &pg)
	return pg, err
}

// --- Replication --------------------------------------------------------------

// ReplicationEvents polls the node's change journal for batches after
// sequence `from`. A positive wait long-polls: the server holds the
// request until new events arrive or the wait elapses (bounded
// server-side), so tailing followers see sub-second propagation without
// hammering the endpoint. A `compacted` error (api.CodeCompacted) means
// the range was dropped by retention — re-bootstrap via
// ReplicationSnapshot.
//
// A non-zero epoch asserts the poller's adopted leadership term: a node
// behind it answers `stale_epoch` (it is a deposed leader whose batches
// must not be applied) instead of serving a stale feed.
//
// A non-nil ack piggybacks the poller's progress report on the poll —
// the ack path of quorum writes; nil polls purely as a reader.
func (c *Client) ReplicationEvents(ctx context.Context, from uint64, max int, wait time.Duration, epoch uint64, ack *ReplAck) (api.ReplicationEvents, error) {
	var out api.ReplicationEvents
	q := url.Values{"from": {fmt.Sprint(from)}}
	if max > 0 {
		q.Set("max", fmt.Sprint(max))
	}
	if wait > 0 {
		q.Set("wait_ms", fmt.Sprint(wait.Milliseconds()))
	}
	if epoch > 0 {
		q.Set("epoch", fmt.Sprint(epoch))
	}
	if ack != nil && ack.Self != "" {
		q.Set("self", ack.Self)
		q.Set("applied", fmt.Sprint(ack.Applied))
		q.Set("commit", fmt.Sprint(ack.Commit))
	}
	err := c.get(ctx, "/api/v1/replication/events", q, &out)
	return out, err
}

// ReplAck is the progress report a follower piggybacks on a replication
// poll: which node it is (its advertised URL), the highest change
// sequence it has folded into its store, and the cluster commit index
// it has persisted. On a quorum-writing leader the applied report is
// the write ack — there is no separate ack RPC — and a commit report
// behind the leader's releases the long-poll early so the follower
// adopts the fresh durability watermark promptly.
type ReplAck struct {
	Self    string
	Applied uint64
	Commit  uint64
}

// ReplicationSnapshot fetches the full bootstrap image: the node's
// entire kv state plus the change-sequence watermark to tail from.
func (c *Client) ReplicationSnapshot(ctx context.Context) (api.ReplicationSnapshot, error) {
	var out api.ReplicationSnapshot
	err := c.get(ctx, "/api/v1/replication/snapshot", nil, &out)
	return out, err
}

// ClusterStatus reports the target node's view of the replica set: its
// replication block, its shard rows, and a liveness/lag probe of each
// configured peer (up to 750 ms when a peer is slow or dead — resolve
// the leader from Healthz instead).
func (c *Client) ClusterStatus(ctx context.Context) (api.ClusterStatus, error) {
	var out api.ClusterStatus
	err := c.get(ctx, "/api/v1/cluster", nil, &out)
	return out, err
}

// --- Pagination helper --------------------------------------------------------

// Collect walks a paginated endpoint to exhaustion and returns all
// items. fetch is any page-returning method bound to its fixed
// arguments:
//
//	all, err := client.Collect(ctx, func(cur string) (api.Page[string], error) {
//	    return c.Users(ctx, cur, 0)
//	})
func Collect[T any](ctx context.Context, fetch func(cursor string) (api.Page[T], error)) ([]T, error) {
	var all []T
	cursor := ""
	for {
		if err := ctx.Err(); err != nil {
			return all, err
		}
		pg, err := fetch(cursor)
		if err != nil {
			return all, err
		}
		all = append(all, pg.Items...)
		if pg.NextCursor == "" {
			return all, nil
		}
		cursor = pg.NextCursor
	}
}
