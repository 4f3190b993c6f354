package social

// Typed change log: every mutation of the store emits one or more
// ChangeEvents describing *what* changed, replacing the untyped dirty
// bit the platform used to rebuild the whole knowledge engine from. The
// events are the contract between the write path and the incremental
// engine maintenance (core.Builder.ApplyDelta): each event names the
// entity it touched and the related entities a delta repair needs, so
// the engine can recompute exactly the derived state the write
// invalidated instead of rebuilding O(corpus).

// ChangeKind classifies a change event.
type ChangeKind uint8

// Change kinds. The store currently has no hard-delete APIs beyond
// Unfollow, so ChangeDelete is rare; it exists so delta consumers
// handle removal uniformly when more delete paths appear.
const (
	// ChangePut records a create or update of an entity.
	ChangePut ChangeKind = iota + 1
	// ChangeDelete records a removal of an entity (or edge).
	ChangeDelete
)

func (k ChangeKind) String() string {
	switch k {
	case ChangePut:
		return "put"
	case ChangeDelete:
		return "delete"
	}
	return "unknown"
}

// EntityType names the kind of entity a ChangeEvent touched.
type EntityType string

// Entity types carried by change events.
const (
	EntityUser          EntityType = "user"
	EntityConference    EntityType = "conference"
	EntitySession       EntityType = "session"
	EntityPaper         EntityType = "paper"
	EntityPresentation  EntityType = "presentation"
	EntityConnection    EntityType = "connection"
	EntityFollow        EntityType = "follow"
	EntityCheckin       EntityType = "checkin"
	EntityQuestion      EntityType = "question"
	EntityAnswer        EntityType = "answer"
	EntityComment       EntityType = "comment"
	EntityWorkpad       EntityType = "workpad"
	EntityActiveWorkpad EntityType = "active-workpad"
	// EntityActivity marks an appended activity-stream Event; ID is the
	// event's sequence key (seqKey) and Refs is [actor, object].
	EntityActivity EntityType = "activity"
)

// ChangeEvent is one typed entry of the store's change log.
//
// Seq is a monotone sequence assigned at emission time; consumers use
// it to order events and to bound "applied up to" watermarks. On
// durable stores the change journal persists every delivered batch, so
// Seq resumes where it left off after a reopen (in-memory stores
// restart at zero). ID identifies
// the touched entity within its type (edges use composite IDs, e.g.
// "follower/followee"). Refs lists the related entity IDs an
// incremental consumer needs to repair derived state (paper authors,
// edge endpoints, workpad owners) without refetching the entity first.
// ChangeEvents are also the unit of durability and replication: the
// store journals every delivered batch (internal/journal), and the
// leader/follower protocol ships batches by Seq — hence the JSON tags,
// which are part of the replication wire format.
type ChangeEvent struct {
	Seq        uint64     `json:"seq"`
	Kind       ChangeKind `json:"kind"`
	EntityType EntityType `json:"entity"`
	ID         string     `json:"id"`
	Refs       []string   `json:"refs,omitempty"`
}
