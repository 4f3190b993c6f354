package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"hive/internal/workload"
)

// opKind names one service class of the v1 API as a user meets it.
type opKind uint8

const (
	opSearch opKind = iota
	opCtxSearch
	opPreview
	opProfile
	opPeerRecs
	opRelationship
	opResourceRecs
	opSessions
	opDigest
	opFeed
	opComment
	opCheckin
	opFollow
	opAnswer
	opAsk
	opPaper
	numOpKinds
)

var opNames = [numOpKinds]string{
	"search", "ctx_search", "preview", "profile", "peer_recs", "relationship",
	"resource_recs", "sessions", "digest", "feed",
	"comment", "checkin", "follow", "answer", "ask", "paper",
}

func (k opKind) String() string { return opNames[k] }

// isWrite reports whether the class mutates the store.
func (k opKind) isWrite() bool { return k >= opComment }

// Fixed request parameters: every run of every commit asks for the same
// page sizes.
const (
	searchK    = 10
	previewK   = 3
	peerRecsK  = 5
	resourceK  = 10
	sessionsK  = 5
	digestRows = 5
	feedLimit  = 20
	// probeEvery: every probeEvery-th text write (ask, paper) is followed
	// by a read-your-write search for its unique token.
	probeEvery = 50
	// zipfS is the skew of owners, users and query terms.
	zipfS = 1.1
)

// op is one request, fully determined at generation time: the run does
// no random draws, so a seed fixes the byte-exact request sequence.
type op struct {
	Kind  opKind
	User  string // acting user (owner of a write, subject of a read)
	Other string // second user (relationship partner, followee); a new paper's conference
	Query string // search text
	Ref   string // document, session, conference, question or paper referred to
	ID    string // identifier of the entity a write creates
	Text  string // body of a text write
	Token string // unique indexed token of a text write ("" when none)
	Probe bool   // follow this write with a read-your-write search for Token
}

// mixEntry is one class's share of a workload, in percent.
type mixEntry struct {
	Kind opKind
	Pct  int
}

// datasetSeed is the seed of the one dataset every run loads. --seed
// draws the requests — who asks, about whom, which terms, which owners
// write what, in which order — not the conference they are asked about:
// with the dataset drawn from --seed too, discover's primary_p50_ms kept
// a seed's own level across sets (seed 109 read 55 and 61 ms, seed 104
// 78 and 92 ms) and spread by a quarter over ten seeds, its whole bound.
const datasetSeed = 13

// datasetConfig is the dataset every workload loads.
func datasetConfig(seed int64, users int) workload.Config {
	return workload.Config{
		Seed: seed, Users: users,
		Series: 2, YearsPerSeries: 2, SessionsPerConf: 8, PapersPerSess: 4,
	}
}

// generator draws ops for one dataset. Owners of writes, second users,
// documents and query terms are zipfian; which user is hot is a
// seed-drawn permutation, so the hot owner lands on a different shard
// under a different seed. The subjects of each read class go round a
// seed-drawn order of all users.
type generator struct {
	rng   *rand.Rand
	ds    *workload.Dataset
	users []string // hot-first
	// readers is the order in which each read class visits its subjects
	// and served how many reads of each class were drawn: a class asks for
	// every user once before it asks for anyone twice, so two runs time
	// nearly the same population and their medians differ by less than
	// two samples of it would.
	readers []string
	served  [numOpKinds]int
	zUser   *rand.Zipf
	zTerm   *rand.Zipf
	zDoc    *rand.Zipf
	byTop   [][]string // users of each topic, for same-topic relationship pairs
	docs    []string   // previewable doc IDs (index namespace), hot-first
	tag     string     // phase tag making write IDs unique across phases
	nText   int        // text writes drawn so far (drives Probe)
	n       int        // ops drawn so far (drives write IDs)
}

func newGenerator(seed int64, ds *workload.Dataset, tag string) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{rng: rng, ds: ds, tag: tag}
	for _, u := range ds.Users {
		g.users = append(g.users, u.ID)
	}
	rng.Shuffle(len(g.users), func(i, j int) { g.users[i], g.users[j] = g.users[j], g.users[i] })
	g.readers = append([]string(nil), g.users...)
	rng.Shuffle(len(g.readers), func(i, j int) { g.readers[i], g.readers[j] = g.readers[j], g.readers[i] })
	g.byTop = make([][]string, len(workload.Topics))
	for _, u := range g.users {
		t := ds.TopicOfUser[u]
		g.byTop[t] = append(g.byTop[t], u)
	}
	for _, p := range ds.Papers {
		g.docs = append(g.docs, "paper/"+p.ID)
	}
	for _, pr := range ds.Presentations {
		g.docs = append(g.docs, "pres/"+pr.ID)
	}
	rng.Shuffle(len(g.docs), func(i, j int) { g.docs[i], g.docs[j] = g.docs[j], g.docs[i] })
	g.zUser = rand.NewZipf(rng, zipfS, 1, uint64(len(g.users)-1))
	g.zTerm = rand.NewZipf(rng, zipfS, 1, uint64(len(workload.Topics[0].Terms)-1))
	g.zDoc = rand.NewZipf(rng, zipfS, 1, uint64(len(g.docs)-1))
	return g
}

// user draws a zipfian user.
func (g *generator) user() string { return g.users[g.zUser.Uint64()] }

// otherUser returns a zipfian user different from u.
func (g *generator) otherUser(u string) string {
	for {
		if o := g.user(); o != u {
			return o
		}
	}
}

// query builds a 2-3 term query from one topic's vocabulary, so every
// query has hits.
func (g *generator) query() string {
	terms := workload.Topics[g.rng.Intn(len(workload.Topics))].Terms
	n := 2 + g.rng.Intn(2)
	parts := make([]string, 0, n)
	for len(parts) < n {
		t := terms[g.zTerm.Uint64()]
		if !slices.Contains(parts, t) {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " ")
}

// body builds the text of a write from the user's topic vocabulary plus
// the write's unique token.
func (g *generator) body(u, token string) string {
	terms := workload.Topics[g.ds.TopicOfUser[u]].Terms
	pick := func() string { return terms[g.zTerm.Uint64()] }
	return fmt.Sprintf("How does %s %s relate to %s %s %s", pick(), pick(), pick(), pick(), token)
}

// next draws one op of the given class.
func (g *generator) next(kind opKind) op {
	g.n++
	// Who acts: every attendee reads for themself about equally often,
	// while a few owners do most of the writing. (With zipfian readers one
	// user's evidence decided a quarter of discover's requests, and its
	// medians moved by a quarter from seed to seed.)
	o := op{Kind: kind}
	if kind.isWrite() {
		o.User = g.user()
	} else {
		o.User = g.readers[g.served[kind]%len(g.readers)]
		g.served[kind]++
	}
	id := fmt.Sprintf("b%s%06d", g.tag, g.n)
	switch kind {
	case opSearch:
		o.Query = g.query()
	case opCtxSearch:
		o.Query = g.query()
	case opPreview:
		o.Ref = g.docs[g.zDoc.Uint64()]
	case opRelationship:
		// Half the pairs are the kind a recommendation list holds (same
		// dominant topic, where the planted evidence is dense), half are
		// any two users. The recommendation lists themselves are not
		// known until the server answers, and op lists must be a pure
		// function of the seed.
		if same := g.byTop[g.ds.TopicOfUser[o.User]]; g.n%2 == 0 && len(same) > 1 {
			for o.Other == "" || o.Other == o.User {
				o.Other = same[g.rng.Intn(len(same))]
			}
		} else {
			o.Other = g.otherUser(o.User)
		}
	case opSessions:
		o.Ref = g.ds.Conferences[g.rng.Intn(len(g.ds.Conferences))].ID
	case opComment:
		o.ID = id
		o.Ref = g.ds.Papers[g.rng.Intn(len(g.ds.Papers))].ID
		o.Text = "Interesting result on " + workload.Topics[g.ds.TopicOfUser[o.User]].Name
	case opCheckin:
		o.Ref = g.ds.Sessions[g.rng.Intn(len(g.ds.Sessions))].ID
	case opFollow:
		o.Other = g.otherUser(o.User)
	case opAnswer:
		o.ID = id
		o.Ref = g.ds.Questions[g.rng.Intn(len(g.ds.Questions))].ID
		o.Text = "Thanks, see the " + workload.Topics[g.ds.TopicOfUser[o.User]].Name + " section"
	case opAsk, opPaper:
		o.ID = id
		o.Token = "tok" + id
		o.Text = g.body(o.User, o.Token)
		if kind == opAsk {
			o.Ref = g.ds.Papers[g.rng.Intn(len(g.ds.Papers))].ID
		} else {
			s := g.ds.Sessions[g.rng.Intn(len(g.ds.Sessions))]
			o.Ref, o.Other = s.ID, s.ConferenceID
		}
		g.nText++
		o.Probe = g.nText%probeEvery == 0
	}
	return o
}

// opList draws n ops whose class shares match mix exactly over every
// block of 100: each block is one shuffled deck, so two seeds differ in
// order and arguments but never in composition.
func opList(seed int64, ds *workload.Dataset, tag string, mix []mixEntry, n int) []op {
	g := newGenerator(seed, ds, tag)
	var deck []opKind
	for _, m := range mix {
		for i := 0; i < m.Pct; i++ {
			deck = append(deck, m.Kind)
		}
	}
	if len(deck) != 100 {
		panic(fmt.Sprintf("benchmark: mix sums to %d%%, want 100", len(deck)))
	}
	ops := make([]op, 0, n)
	for len(ops) < n {
		g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, k := range deck {
			if len(ops) == n {
				break
			}
			ops = append(ops, g.next(k))
		}
	}
	return ops
}
