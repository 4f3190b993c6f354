package core

import (
	"fmt"
	"strconv"
	"time"

	"hive/internal/social"
	"hive/internal/textindex"
)

// Delta maintenance: ApplyDelta turns a batch of typed store change
// events into a new Engine snapshot in time proportional to the events
// (and the current overlay), not the corpus. The new snapshot
// structurally shares everything the events did not touch — the frozen
// base segment, the evidence-layer graphs, the concept map, the
// knowledge base and the untouched rows of every phase-2 table — and
// repairs only:
//
//   - the text read view: new/updated papers, presentations and
//     questions enter the overlay segment (shadowing their base
//     versions), so Search/vectors serve them immediately;
//   - context rows (context run, workpad peer pins) of the users whose
//     profile or workpad the events touched;
//   - session runs of new sessions and of sessions a paper was
//     published into;
//   - uploaded-content runs of authors/owners of touched documents;
//   - interaction vectors and object popularity for appended activity
//     events past the build's stream watermark, in whatever order the
//     batches arrive;
//   - the PageRank memo: entries of affected users are invalidated, all
//     others carry over.
//
// What a delta deliberately does NOT repair: the evidence-layer graphs,
// their integration, communities, the RDF knowledge base, the citation
// graph and the concept map. Events with such effects bump the
// snapshot's graphPending counter instead; the platform's compaction
// policy schedules a full Build (the compaction) when the overlay,
// tombstone ratio or graphPending crosses its threshold. Until
// then, content freshness is immediate and graph evidence ages at the
// paper's original offline-refresh cadence.

// ApplyDelta derives a new snapshot from prev by applying the change
// events against the current store state. prev is never mutated; both
// snapshots stay fully serveable. Events referencing entities that no
// longer resolve in the store are skipped. A panic in any repair is
// converted into an error, like every build stage.
func (b *Builder) ApplyDelta(prev *Engine, events []social.ChangeEvent) (eng *Engine, err error) {
	defer func() {
		if r := recover(); r != nil {
			eng, err = nil, fmt.Errorf("core: delta apply panicked: %v", r)
		}
	}()
	if prev == nil || prev.seg == nil {
		return nil, fmt.Errorf("core: delta apply needs a fully built base snapshot")
	}
	start := time.Now()
	st := b.Store

	// Classify the batch into the repairs it demands.
	docs := map[string]string{}   // docID -> re-rendered text
	drops := []string(nil)        // docIDs to tombstone
	ctxUsers := map[string]bool{} // users whose context vector must recompute
	sessions := map[string]bool{} // sessions whose text changed
	contentUsers := map[string]bool{}
	var activity []social.Event // appended stream events past the watermark
	graphPending := 0

	for _, ev := range events {
		switch ev.EntityType {
		case social.EntityPaper:
			if p, err := st.Paper(ev.ID); err == nil {
				docs[DocPaper+p.ID] = p.Title + ". " + p.Abstract
				for _, a := range p.Authors {
					contentUsers[a] = true
				}
				if p.SessionID != "" {
					sessions[p.SessionID] = true // its text lists the paper's title
				}
			} else if ev.Kind == social.ChangeDelete {
				drops = append(drops, DocPaper+ev.ID)
			}
			graphPending++ // coauthor/citation layers, knowledge base
		case social.EntityPresentation:
			if pr, err := st.Presentation(ev.ID); err == nil {
				docs[DocPresentation+pr.ID] = pr.Title + ". " + pr.Text
				contentUsers[pr.Owner] = true
			} else if ev.Kind == social.ChangeDelete {
				drops = append(drops, DocPresentation+ev.ID)
			}
		case social.EntityQuestion:
			if q, err := st.Question(ev.ID); err == nil {
				docs[DocQuestion+q.ID] = q.Text
			} else if ev.Kind == social.ChangeDelete {
				drops = append(drops, DocQuestion+ev.ID)
			}
			graphPending++ // QA layer
		case social.EntityUser:
			// Interests feed the context vector; layer membership waits
			// for compaction.
			ctxUsers[ev.ID] = true
			graphPending++
		case social.EntitySession:
			sessions[ev.ID] = true
		case social.EntityWorkpad:
			if len(ev.Refs) > 0 {
				ctxUsers[ev.Refs[0]] = true
			}
		case social.EntityActiveWorkpad:
			ctxUsers[ev.ID] = true
		case social.EntityConnection, social.EntityFollow, social.EntityCheckin,
			social.EntityAnswer:
			graphPending++
		case social.EntityActivity:
			seq, perr := strconv.ParseUint(ev.ID, 16, 64)
			if perr != nil || seq <= prev.evtSeq {
				continue // the build's scan counted it
			}
			if sev, err := st.EventBySeq(seq); err == nil {
				activity = append(activity, sev)
			}
		}
	}

	ne := &Engine{
		store: st,
		seg:   prev.seg,
		// Shared derived structures — repaired only by compaction.
		concepts:    prev.concepts,
		papers:      prev.papers,
		users:       prev.users,
		citationNet: prev.citationNet,
		connLayer:   prev.connLayer,
		coauthLayer: prev.coauthLayer,
		attendLayer: prev.attendLayer,
		qaLayer:     prev.qaLayer,
		layers:      prev.layers,
		integrated:  prev.integrated,
		peerGraph:   prev.peerGraph,
		kb:          prev.kb,
		communities: prev.communities,
		// Phase-2 tables share their base. An overlay this batch repairs
		// starts as a copy of the previous one and absorbs the repairs
		// below; one it does not repair is shared as it is, since only
		// those repairs write to it. The copy holds every row repaired
		// since the last full build, not just this batch's, so it grows
		// with the writes since the last compaction: a set-up that writes
		// for every user before its first compaction copies every user's
		// rows on each later write that repairs that table.
		ctx:          prev.ctx.derive(len(ctxUsers)),
		sessions:     prev.sessions.derive(len(sessions)),
		vecDict:      prev.vecDict,
		content:      prev.content.derive(len(contentUsers)),
		inter:        prev.inter.derive(len(activity)),
		pop:          prev.pop.derive(len(activity)),
		evtSeq:       prev.evtSeq,
		graphPending: prev.graphPending + graphPending,
		buildWorkers: prev.buildWorkers,
		builtAt:      prev.builtAt,
		buildDur:     prev.buildDur,
		buildStages:  prev.buildStages,
		deltaCount:   prev.deltaCount + 1,
	}

	// Text overlay: new and updated documents shadow their base
	// versions; removed ones tombstone.
	if len(docs) > 0 {
		ne.seg = ne.seg.WithDocs(docs)
	}
	if len(drops) > 0 {
		ne.seg = ne.seg.WithoutDocs(drops)
	}

	// Context repairs: recompute the affected users' rows against the
	// current store.
	for u := range ctxUsers {
		var pad []social.WorkpadItem
		if wp, err := st.ActiveWorkpad(u); err == nil {
			pad = wp.Items
		}
		ne.ctx.over[u] = newUserContext(ne.vecDict.Compile(ne.computeContextVector(u)), pad)
	}

	// Session repairs: a new session, or one a paper was published into,
	// gets its run re-rendered from the current store.
	for sid := range sessions {
		ne.sessions.over[sid] = ne.vecDict.Compile(ne.sessionVector(sid))
	}

	// Content repairs: authors/owners of touched documents, computed
	// through the new overlay view so the vectors carry merged-corpus
	// statistics.
	for u := range contentUsers {
		ne.content.over[u] = ne.vecDict.Compile(ne.computeUserContentVector(u))
	}

	// Interaction repairs: fold the batch's activity events past the
	// build's watermark. A row is copied before this batch first writes
	// it, whether it came from the base or from prev's overlay: both stay
	// prev's.
	copied := map[string]bool{}
	for _, sev := range activity {
		doc := ne.docIDForObject(sev.Object)
		if doc == "" {
			continue
		}
		n, _ := ne.pop.get(doc)
		ne.pop.over[doc] = n + 1
		if w, ok := verbWeight[sev.Verb]; ok && sev.Object != "" {
			if !copied[sev.Actor] {
				old, _ := ne.inter.get(sev.Actor)
				v := make(textindex.Vector, len(old)+1)
				for d, x := range old {
					v[d] = x
				}
				ne.inter.over[sev.Actor] = v
				copied[sev.Actor] = true
			}
			ne.inter.over[sev.Actor][doc] += w
		}
	}

	// PageRank memo: carry over every entry except the users whose
	// restart bias (workpad pins) may have changed.
	prev.pprMu.Lock()
	ne.pprMemo = make(map[string][]float64, len(prev.pprMemo))
	for u, pr := range prev.pprMemo {
		if !ctxUsers[u] {
			ne.pprMemo[u] = pr
		}
	}
	prev.pprMu.Unlock()

	ne.lastDeltaDur = time.Since(start)
	ne.appliedAt = time.Now()
	return ne, nil
}
