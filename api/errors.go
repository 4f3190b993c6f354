// Package api is the versioned wire contract of the Hive HTTP API
// (/api/v1): the typed request and response DTOs, the structured error
// envelope with stable machine-readable codes, cursor-based pagination,
// and the batch-ingest format. Server, client SDK, benchmarks and tests
// all share these types, so the contract is exercised end-to-end and a
// change to the wire shape is a change to this package.
//
// Entity DTOs alias the platform's domain types: the JSON tags on those
// types *are* the wire schema, and aliasing keeps a single source of
// truth between storage and transport.
package api

import (
	"errors"
	"fmt"
)

// Stable machine-readable error codes. Codes are part of the v1
// contract: clients may switch on them, so existing values never change
// meaning (new codes may be added).
const (
	// CodeNotFound: a referenced entity does not exist (HTTP 404).
	CodeNotFound = "not_found"
	// CodeInvalidArgument: a well-formed request with bad field values —
	// empty IDs, dangling references, malformed cursors (HTTP 400).
	CodeInvalidArgument = "invalid_argument"
	// CodeBadRequest: the request body could not be parsed (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodePayloadTooLarge: the request body exceeds the server's size
	// cap (HTTP 413).
	CodePayloadTooLarge = "payload_too_large"
	// CodeTimeout: the server gave up on the request (HTTP 503).
	CodeTimeout = "timeout"
	// CodeOverloaded: the in-flight request limit was hit (HTTP 503).
	CodeOverloaded = "overloaded"
	// CodeRateLimited: the request-rate limit was hit (HTTP 429).
	CodeRateLimited = "rate_limited"
	// CodeNotLeader: a write was sent to a replication follower; the
	// error's details carry the leader's URL under "leader" and the
	// node's leadership term under "epoch" (HTTP 409). Clients follow
	// the hint; an empty leader means the election is unresolved —
	// re-resolve via replication.leader_url in GET /healthz and retry.
	CodeNotLeader = "not_leader"
	// CodeCompacted: a replication read asked for journal sequences
	// dropped by retention; the follower must re-bootstrap from the
	// snapshot endpoint (HTTP 410).
	CodeCompacted = "compacted"
	// CodeQuorumUnavailable: a quorum-acknowledged write could not
	// collect enough follower acks within the leader's ack timeout. The
	// write is journaled on the leader and replicates when followers
	// return — durability is unproven, not rolled back. Details carry the
	// waited-on change sequence under "seq", the acks collected under
	// "acked" and the configured quorum under "needed" (HTTP 503).
	CodeQuorumUnavailable = "quorum_unavailable"
	// CodeStaleEpoch: a replication request asserted a newer leadership
	// epoch than this node has adopted — the node is (or is about to
	// be) fenced off as a deposed leader. The caller must not apply
	// anything it serves; re-resolve the leader instead. Details carry
	// the node's term under "epoch" and the asserted term under
	// "requested_epoch" (HTTP 409).
	CodeStaleEpoch = "stale_epoch"
	// CodeInternal: unclassified server failure (HTTP 500).
	CodeInternal = "internal"
)

// Error is the wire error: a stable code, a human-readable message, and
// optional structured details. It implements error so the client SDK
// can return it directly.
type Error struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`

	// HTTPStatus is the HTTP status the error arrived with. Set by the
	// client SDK; not serialized.
	HTTPStatus int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e == nil {
		return "<nil>"
	}
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// ErrorResponse is the error envelope every non-2xx v1 response carries:
//
//	{"error": {"code": "not_found", "message": "..."}}
type ErrorResponse struct {
	Error *Error `json:"error"`
	// TraceID is the request's one ID, its X-Hive-Trace-Id, echoed in
	// the envelope so a failed call is findable in the server's access
	// log and debug/traces ring without header access. The server sets
	// it on every envelope, the timeout's included.
	TraceID string `json:"trace_id,omitempty"`
}

// IsCode reports whether err is an *Error with the given code.
func IsCode(err error, code string) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Code == code
}
