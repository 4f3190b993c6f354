// Package httpload applies a synthetic workload.Dataset to a live Hive
// server through the v1 API client SDK — the HTTP twin of
// Dataset.Load. It lives apart from package workload so the generator
// stays dependency-free (core and platform tests import it), while the
// loaders pull in the client and contract packages.
//
// Batch is the production bulk-ingest path: chunked POST /api/v1/batch,
// one round trip and one snapshot invalidation per chunk.
package httpload

import (
	"context"
	"fmt"

	"hive/api"
	"hive/client"
	"hive/internal/workload"
)

// Entities flattens the dataset into batch entities in referential
// order (users before papers, conferences before sessions, ...) — the
// same order Dataset.Load applies — deduplicating connection and
// follow pairs.
func Entities(ds *workload.Dataset) ([]api.BatchEntity, error) {
	var ents []api.BatchEntity
	add := func(kind string, v any) error {
		ent, err := api.NewBatchEntity(kind, v)
		if err != nil {
			return err
		}
		ents = append(ents, ent)
		return nil
	}
	for _, u := range ds.Users {
		if err := add(api.KindUser, u); err != nil {
			return nil, err
		}
	}
	for _, c := range ds.Conferences {
		if err := add(api.KindConference, c); err != nil {
			return nil, err
		}
	}
	for _, s := range ds.Sessions {
		if err := add(api.KindSession, s); err != nil {
			return nil, err
		}
	}
	for _, p := range ds.Papers {
		if err := add(api.KindPaper, p); err != nil {
			return nil, err
		}
	}
	for _, pr := range ds.Presentations {
		if err := add(api.KindPresentation, pr); err != nil {
			return nil, err
		}
	}
	for _, c := range dedupPairs(ds.Connections, true) {
		if err := add(api.KindConnection, api.ConnectRequest{A: c[0], B: c[1]}); err != nil {
			return nil, err
		}
	}
	for _, f := range dedupPairs(ds.Follows, false) {
		if err := add(api.KindFollow, api.FollowRequest{Follower: f[0], Followee: f[1]}); err != nil {
			return nil, err
		}
	}
	for _, ci := range ds.CheckIns {
		if err := add(api.KindCheckin, api.CheckinRequest{SessionID: ci[0], UserID: ci[1]}); err != nil {
			return nil, err
		}
	}
	for _, q := range ds.Questions {
		if err := add(api.KindQuestion, q); err != nil {
			return nil, err
		}
	}
	for _, a := range ds.Answers {
		if err := add(api.KindAnswer, a); err != nil {
			return nil, err
		}
	}
	for _, c := range ds.Comments {
		if err := add(api.KindComment, c); err != nil {
			return nil, err
		}
	}
	for _, w := range ds.Workpads {
		if err := add(api.KindWorkpad, w); err != nil {
			return nil, err
		}
	}
	return ents, nil
}

// dedupPairs drops self-pairs and duplicates; undirected pairs compare
// order-insensitively (connections are mutual, follows are not).
func dedupPairs(pairs [][2]string, undirected bool) [][2]string {
	seen := map[[2]string]bool{}
	var out [][2]string
	for _, p := range pairs {
		key := p
		if undirected && key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if p[0] == p[1] || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out
}

// Batch applies the dataset over the v1 API in chunked batch-ingest
// calls (chunk entities per POST /batch; chunk <= 0 means 256). Workpad
// activation rides through the typed endpoint afterwards (it has no
// batch kind).
func Batch(ctx context.Context, c *client.Client, ds *workload.Dataset, chunk int) error {
	if chunk <= 0 {
		chunk = 256
	}
	ents, err := Entities(ds)
	if err != nil {
		return err
	}
	for start := 0; start < len(ents); start += chunk {
		end := min(start+chunk, len(ents))
		br, err := c.Batch(ctx, ents[start:end])
		if err != nil {
			return err
		}
		if br.Failed > 0 {
			return fmt.Errorf("httpload: batch chunk [%d:%d]: %d failed, first: %v",
				start, end, br.Failed, br.Errors[0].Error)
		}
	}
	return activateWorkpads(ctx, c, ds)
}

func activateWorkpads(ctx context.Context, c *client.Client, ds *workload.Dataset) error {
	for _, w := range ds.Workpads {
		if err := c.ActivateWorkpad(ctx, w.Owner, w.ID); err != nil {
			return err
		}
	}
	return nil
}
