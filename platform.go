package hive

import (
	"context"

	"hive/internal/social"
)

// A Platform's service surface is its embedded one-shard router (see
// Open): every mutation, entity read and knowledge service is declared
// once, on *Sharded, and promoted. What this file keeps is the per-shard
// write primitive those services run through and the two search calls
// whose library signature has no context.

// mutate runs one store mutation through the write fence and, when
// quorum writes are enabled, holds the response until the write is
// quorum-acknowledged. Every Sharded mutation funnels through it so the
// durability mode is uniform across the write surface. Direct Store()
// writes bypass the fence — on a follower they would fork it from the
// leader.
func (p *Platform) mutate(fn func(st *social.Store) error) error {
	if err := p.writable(); err != nil {
		return err
	}
	if err := fn(p.store); err != nil {
		return err
	}
	return p.waitQuorum()
}

// Search runs keyword search over all content (Sharded.Search without a
// request trace).
func (p *Platform) Search(query string, k int) ([]SearchResult, error) {
	return p.router.Search(context.Background(), query, k)
}

// SearchWithContext runs context-aware search conditioned on the user's
// active workpad (Sharded.SearchWithContext without a request trace).
func (p *Platform) SearchWithContext(userID, query string, k int) ([]SearchResult, error) {
	return p.router.SearchWithContext(context.Background(), userID, query, k)
}
