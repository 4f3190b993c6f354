package api

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
)

// TraceHeader carries the end-to-end request trace ID. The client SDK
// mints one per logical call and replays it across failover retries;
// the server adopts an inbound value (minting one otherwise), echoes it
// on the response, threads it through the access log and error
// envelopes, and records it in the debug/traces ring — so one ID
// follows a request across every node it touched.
const TraceHeader = "X-Hive-Trace-Id"

// ShardOf maps an owning user/community ID to a shard. The hash is part
// of the v1 wire contract: the server places every write with this
// exact function and data dirs pin its placement, so it never changes
// for a given (owner, count) pair; operator tooling may use it to tell
// which shard row an owner's data moves. FNV-1a, 64-bit.
func ShardOf(owner string, count int) int {
	if count <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(owner); i++ {
		h ^= uint64(owner[i])
		h *= prime64
	}
	return int(h % uint64(count))
}

// PaperOwner returns a paper's routing owner: its first author, or the
// paper ID when no authors are declared. The server places a paper on
// ShardOf(PaperOwner(p), count).
func PaperOwner(p Paper) string {
	if len(p.Authors) > 0 {
		return p.Authors[0]
	}
	return p.ID
}

// Sharded feed cursors. An offset cursor assumes one global activity
// sequence; with N shards each keeps its own. A feed page therefore
// resumes from a *vector* of per-shard bounds: entry i is the lowest
// sequence already consumed from shard i (0 = shard untouched). The
// next page reads strictly older events per shard, so pagination stays
// stable while any shard keeps writing.
const shardCursorPrefix = "s1:"

// EncodeShardCursor encodes per-shard resume bounds into an opaque
// cursor token.
func EncodeShardCursor(bounds []uint64) string {
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = strconv.FormatUint(b, 10)
	}
	raw := shardCursorPrefix + strings.Join(parts, ",")
	return base64.URLEncoding.EncodeToString([]byte(raw))
}

// DecodeShardCursor decodes a cursor produced by EncodeShardCursor. The
// bound vector must carry exactly one entry per shard; a cursor minted
// at a different shard count fails with ErrBadCursor (shard counts are
// fixed for the life of a data dir, so this only catches corruption or
// cross-deployment reuse).
func DecodeShardCursor(cursor string, shards int) ([]uint64, error) {
	if cursor == "" {
		return make([]uint64, shards), nil
	}
	raw, err := base64.URLEncoding.DecodeString(cursor)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	s := string(raw)
	if !strings.HasPrefix(s, shardCursorPrefix) {
		return nil, fmt.Errorf("%w: unknown version", ErrBadCursor)
	}
	parts := strings.Split(s[len(shardCursorPrefix):], ",")
	if len(parts) != shards {
		return nil, fmt.Errorf("%w: cursor for %d shards, deployment has %d", ErrBadCursor, len(parts), shards)
	}
	bounds := make([]uint64, len(parts))
	for i, p := range parts {
		b, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCursor, err)
		}
		bounds[i] = b
	}
	return bounds, nil
}
