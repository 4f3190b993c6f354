package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hive"
)

// servedBy maps each service method of *hive.Sharded to the routes that
// serve it.
var servedBy = map[string][]string{
	"RegisterUser":       {"POST /api/v1/users"},
	"CreateConference":   {"POST /api/v1/conferences"},
	"CreateSession":      {"POST /api/v1/sessions"},
	"PublishPaper":       {"POST /api/v1/papers"},
	"UploadPresentation": {"POST /api/v1/presentations"},
	"Connect":            {"POST /api/v1/connections"},
	"Follow":             {"POST /api/v1/follows"},
	"CheckIn":            {"POST /api/v1/checkins"},
	"Ask":                {"POST /api/v1/questions"},
	"AnswerQuestion":     {"POST /api/v1/answers"},
	"PostComment":        {"POST /api/v1/comments"},
	"LogBrowse":          {"POST /api/v1/browses"},
	"CreateWorkpad":      {"POST /api/v1/workpads"},
	"AddToWorkpad":       {"POST /api/v1/workpads/{id}/items"},
	"ActivateWorkpad":    {"POST /api/v1/workpads/{id}/activate"},
	"Batched":            {"POST /api/v1/batch"},
	"Refresh":            {"POST /api/v1/admin/refresh"},
	"RefreshAsync":       {"POST /api/v1/admin/refresh"},
	"GetUser":            {"GET /api/v1/users/{id}"},
	"Users":              {"GET /api/v1/users"},
	"Attendees":          {"GET /api/v1/sessions/{id}/attendees"},
	"ActiveWorkpad":      {"GET /api/v1/users/{id}/workpad"},
	"FeedPage":           {"GET /api/v1/users/{id}/feed"},
	"EventsByTag":        {"GET /api/v1/tags/{tag}/events"},
	"Explain":            {"GET /api/v1/relationship"},
	"RankPeers":          {"GET /api/v1/users/{id}/recommendations/peers"},
	"ExplainPeers":       {"GET /api/v1/users/{id}/recommendations/peers"},
	"RecommendResources": {"GET /api/v1/users/{id}/recommendations/resources"},
	"SuggestSessions":    {"GET /api/v1/users/{id}/sessions/suggest"},
	"Search":             {"GET /api/v1/search"},
	"SearchWithContext":  {"GET /api/v1/search"},
	"Preview":            {"GET /api/v1/preview"},
	"UpdateDigest":       {"GET /api/v1/users/{id}/digest"},
	"Communities":        {"GET /api/v1/communities"},
	"SearchHistory":      {"GET /api/v1/users/{id}/history"},
	"ExplainResource":    {"GET /api/v1/users/{id}/resource-relationship"},
	"KnowledgePaths":     {"GET /api/v1/knowledge/paths"},
	"MonitorActivity":    {"GET /api/v1/activity/changes"},
}

// plumbing lists the *hive.Sharded methods that are not services, each
// with the reason it needs no route.
var plumbing = map[string]string{
	"Close":           "lifecycle: hived closes the backend on shutdown",
	"ApplyDeltas":     "lifecycle: compacts stale shards, driven by the compaction loop and tests",
	"AutoRefresh":     "lifecycle: starts the compaction loop (hived -compact-interval)",
	"StopAutoRefresh": "lifecycle: stops the compaction loop",
	"Generation":      "lifecycle: the snapshot generation keys the knowledge ETags",
	"Stale":           "lifecycle: healthz reports staleness per shard row",
	"ShardCount":      "topology: healthz and cluster report shard_count",
	"ShardOf":         "topology: the owner hash that places writes",
	"Shard":           "topology: one shard's Platform, for its state and replication",
	"Shards":          "topology: the shard Platforms, for healthz rows",
	"EngineFor":       "topology: the owner shard's engine, for in-process callers",
	"Connected":       "workload.Router: seed loading checks an edge before writing it",
	"Feed":            "served through the feed route, whose pages FeedPage cuts",
	"RecommendPeers":  "served through the peers route as RankPeers then ExplainPeers",
}

// opsRoutes are the /api/v1 routes that describe or feed the node rather
// than call a service of the backend.
var opsRoutes = map[string]string{
	"GET /api/v1/healthz":              "node and shard state",
	"GET /api/v1/cluster":              "replica-set view",
	"GET /api/v1/debug/traces":         "slow-trace ring",
	"GET /api/v1/replication/events":   "journal feed of shard 0's Platform",
	"GET /api/v1/replication/snapshot": "bootstrap image of shard 0's Platform",
}

// routePatterns lists the mux patterns routes() registers, read from
// this package's source so that a route nobody maps fails the test.
func routePatterns(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "HandleFunc" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			pattern, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, pattern)
		}
		return true
	})
	return out
}

// TestEveryServiceIsServed: what the library offers, the API serves.
// Every exported method of *hive.Sharded backs a registered route or is
// plumbing with a stated reason, and every /api/v1 route maps back to a
// method or is an operations route — so a library-only service, or a
// route nothing claims, fails here.
func TestEveryServiceIsServed(t *testing.T) {
	sh, err := hive.OpenSharded(1, hive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	s := NewSharded(sh, Config{})

	// A pattern counts only if routes() names it and the mux resolves a
	// request for it to that very pattern.
	registered := map[string]bool{}
	for _, pattern := range routePatterns(t) {
		method, path, _ := strings.Cut(pattern, " ")
		req := httptest.NewRequest(method, strings.NewReplacer("{id}", "x", "{tag}", "x").Replace(path), nil)
		if _, got := s.mux.Handler(req); got != pattern {
			t.Errorf("routes() names %q but the mux resolves it to %q", pattern, got)
			continue
		}
		registered[pattern] = true
	}

	methods := map[string]bool{}
	var unserved []string
	typ := reflect.TypeOf(sh)
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		methods[name] = true
		if _, ok := plumbing[name]; ok {
			continue
		}
		routes, ok := servedBy[name]
		for _, r := range routes {
			ok = ok && registered[r]
		}
		if !ok {
			unserved = append(unserved, name)
		}
	}
	if len(unserved) > 0 {
		sort.Strings(unserved)
		t.Errorf("%d *hive.Sharded methods have no route and are not plumbing: %s", len(unserved), strings.Join(unserved, ", "))
	}
	for name := range servedBy {
		if !methods[name] {
			t.Errorf("%s is listed as served but *hive.Sharded has no such method", name)
		}
	}
	for name := range plumbing {
		if !methods[name] {
			t.Errorf("%s is listed as plumbing but *hive.Sharded has no such method", name)
		}
	}

	claimed := map[string]bool{}
	for _, routes := range servedBy {
		for _, r := range routes {
			claimed[r] = true
		}
	}
	for pattern := range registered {
		if strings.Contains(pattern, " /api/v1/") && !claimed[pattern] && opsRoutes[pattern] == "" {
			t.Errorf("route %q maps to no *hive.Sharded method and is not an operations route", pattern)
		}
	}
}
