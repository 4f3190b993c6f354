package social

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hive/internal/journal"
	"hive/internal/kvstore"
)

// crashCopy copies the data dir — kv files and journal — to a fresh temp
// dir: the copy stands in for the disk a crash at this instant leaves
// (writes are flushed to the OS before they are acknowledged, so a
// killed process leaves exactly what a copy sees).
func crashCopy(t testing.TB, dir string) string {
	t.Helper()
	out := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(out, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(out, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// kvImage returns the store's whole kv image.
func kvImage(s *Store) map[string]string {
	img := map[string]string{}
	s.kv.Scan("", func(k string, v []byte) bool {
		img[k] = string(v)
		return true
	})
	return img
}

// foldedImage computes, apart from the social store's Open, what a crash
// copy must reopen to: its kv checkpoint, as the kv store settles it
// against the journal, with the journal records past the checkpoint
// folded over it.
func foldedImage(t testing.TB, dir string) map[string]string {
	t.Helper()
	work := crashCopy(t, dir)
	jn, err := journal.Open(filepath.Join(work, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	kv, err := kvstore.OpenLogged(work, jn)
	if err != nil {
		t.Fatal(err)
	}
	img := map[string]string{}
	kv.Scan("", func(k string, v []byte) bool {
		img[k] = string(v)
		return true
	})
	w := kv.Watermark()
	kv.Close()
	recs, err := jn.ReadFrom(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		var rb ReplicationBatch
		if err := json.Unmarshal(rec.Data, &rb); err != nil {
			t.Fatal(err)
		}
		for k, v := range rb.Puts {
			img[k] = string(v)
		}
		for _, k := range rb.Dels {
			delete(img, k)
		}
	}
	return img
}

// reopenCrash opens a crash copy and checks what Open must give: the
// checkpoint with the journal folded over it, and a change sequence at
// the journal tail.
func reopenCrash(t testing.TB, dir string) *Store {
	t.Helper()
	want := foldedImage(t, dir)
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen crash copy: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	if got := kvImage(s); !maps.Equal(got, want) {
		t.Fatalf("reopened image (%d keys) is not the checkpoint with the journal folded over it (%d keys)", len(got), len(want))
	}
	if _, tail, _ := s.JournalStats(); s.ChangeSeq() != tail {
		t.Fatalf("reopened ChangeSeq %d, journal tail %d", s.ChangeSeq(), tail)
	}
	return s
}

// A crash inside a Batched scope leaves none of the scope's writes on
// disk: the kv store no longer keeps a log of its own, so a write reaches
// disk only in the journal record that carries it.
func TestCrashMidBatchLeavesNoOrphanWrite(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	if err := st.PutUser(User{ID: "a", Name: "A"}); err != nil {
		t.Fatal(err)
	}
	var crash string
	err := st.Batched(func() error {
		if err := st.PutUser(User{ID: "b", Name: "B"}); err != nil {
			return err
		}
		crash = t.TempDir()
		if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
			return err
		}
		return st.PutUser(User{ID: "c", Name: "C"})
	})
	if err != nil {
		t.Fatal(err)
	}

	re := openDir(t, crash)
	carried := map[string]bool{}
	recs, err := re.ChangesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range recs {
		for k := range rb.Puts {
			carried[k] = true
		}
	}
	for _, k := range re.kv.Keys("") {
		if !carried[k] {
			t.Errorf("reopened store holds %q, which no journal record carries", k)
		}
	}
	if re.HasUser("b") || !re.HasUser("a") || re.ChangeSeq() != 1 {
		t.Fatalf("crash inside the batch reopened with b=%v a=%v at ChangeSeq %d; want only a, at 1",
			re.HasUser("b"), re.HasUser("a"), re.ChangeSeq())
	}

	// Once the scope finished, the batch is on disk whole.
	st.Close()
	after := openDir(t, dir)
	if !after.HasUser("b") || !after.HasUser("c") || after.ChangeSeq() != 3 {
		t.Fatalf("after the batch: b=%v c=%v ChangeSeq %d", after.HasUser("b"), after.HasUser("c"), after.ChangeSeq())
	}
}

// A write made on another goroutine while a Batched scope is open
// returns only once its record is on disk: it waits for the scope
// instead of folding into the scope's record and returning before that
// record is journaled. A copy taken while the scope is open holds none
// of the scope's writes and only the plain writes that returned; a copy
// taken after the plain write returned holds it.
func TestWriteRacingBatchedScopeIsDurableOnReturn(t *testing.T) {
	dir := t.TempDir()
	st := openDir(t, dir)
	returned := make(chan error, 1)
	err := st.Batched(func() error {
		if err := st.PutUser(User{ID: "a", Name: "A"}); err != nil {
			return err
		}
		go func() { returned <- st.PutUser(User{ID: "b", Name: "B"}) }()
		// The plain write must not return while the scope is open, so
		// there is no event to wait on: give it time to run instead.
		time.Sleep(50 * time.Millisecond)
		acked := len(returned) > 0
		re := reopenCrash(t, crashCopy(t, dir))
		if re.HasUser("a") || re.HasUser("b") != acked {
			t.Errorf("copy inside the scope: a=%v b=%v, with b acknowledged=%v; want b present exactly when acknowledged, a absent",
				re.HasUser("a"), re.HasUser("b"), acked)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-returned; err != nil {
		t.Fatal(err)
	}
	re := reopenCrash(t, crashCopy(t, dir))
	if !re.HasUser("a") || !re.HasUser("b") {
		t.Fatalf("copy after both returned: a=%v b=%v", re.HasUser("a"), re.HasUser("b"))
	}
	if re.ChangeSeq() != 2 {
		t.Fatalf("ChangeSeq %d, want 2: the scope's record and the plain write's", re.ChangeSeq())
	}
}

// TestCrashModel runs seeded random mutations — plain and Batched, with
// checkpoints forced by small segments and with snapshot imports — and
// copies the data dir at random points, between the steps of each
// checkpoint and import included, some with a torn record after the
// journal's last (an append cut short). Every copy reopens to its checkpoint
// with its journal folded over it, at ChangeSeq = journal tail, holding
// every mutation that returned before the copy and none of an unfinished
// batch; a copy taken inside an import reopens to the state before the
// import or the imported one.
func TestCrashModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { crashModel(t, seed) })
	}
}

func crashModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	st, err := OpenJournaled(dir, fixedClock(), journal.Options{SegmentBytes: 700, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader := openDir(t, "")

	// acked holds the last acknowledged state of every key a returned
	// mutation wrote: true present, false deleted. unfinished lists the
	// keys an open batch created so far.
	acked := map[string]bool{}
	var unfinished []string
	// During an import a copy may reopen to either image.
	var preImport, imported map[string]string
	copies, hooked := 0, map[string]int{}

	type copyPoint struct{ where, dir string }
	take := func(where string, junkTmp bool) copyPoint {
		copies++
		crash := crashCopy(t, dir)
		if junkTmp {
			// A checkpoint that crashed before its rename left a
			// partial temp file behind.
			if err := os.WriteFile(filepath.Join(crash, "snapshot.db.tmp"), []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if segs := segmentNames(t, crash); len(segs) > 0 && rng.Intn(2) == 0 {
			// An append that crashed halfway left a torn record.
			f, err := os.OpenFile(filepath.Join(crash, "journal", segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x13, 0x37, 0, 0, 9})
			f.Close()
		}
		return copyPoint{where, crash}
	}
	verify := func(cp copyPoint) {
		where := cp.where
		re := reopenCrash(t, cp.dir)
		defer re.Close()
		img := kvImage(re)
		if preImport != nil {
			if !maps.Equal(img, preImport) && !maps.Equal(img, imported) {
				t.Fatalf("%s: crash inside an import reopened to neither the old state nor the imported one", where)
			}
			return
		}
		for k, present := range acked {
			if _, ok := img[k]; ok != present {
				t.Fatalf("%s: acknowledged write %q present=%v after reopen, want %v", where, k, ok, present)
			}
		}
		for _, k := range unfinished {
			if _, ok := img[k]; ok {
				t.Fatalf("%s: %q of an unfinished batch survived the crash", where, k)
			}
		}
	}
	check := func(where string, junkTmp bool) { verify(take(where, junkTmp)) }
	// A checkpoint runs in the background, so its steps' copies are
	// verified by drain, which waits for it; the model does not move
	// before drain returns.
	var taken []copyPoint
	drain := func() {
		st.ckWG.Wait()
		for _, cp := range taken {
			verify(cp)
		}
		taken = nil
	}
	st.onStep = func(step string) {
		hooked[step]++
		if rng.Intn(2) == 0 {
			taken = append(taken, take(step, step == "checkpoint.staging"))
		}
	}

	// A write is recorded before it is made: the one copy point inside a
	// mutation, a checkpoint, comes after its journal append.
	users := []string{}
	pending := map[string]bool{} // the writes of the open batch
	n := 0
	write := func(inBatch bool) {
		n++
		into := acked
		if inBatch {
			into = pending
		}
		created := ""
		var err error
		switch op := rng.Intn(10); {
		case op < 5 || len(users) < 2:
			id := fmt.Sprintf("u%03d", n)
			created = pUser + id
			into[created] = true
			users = append(users, id)
			err = st.PutUser(User{ID: id, Name: strings.Repeat("n", rng.Intn(40))})
		case op < 7:
			c := Comment{ID: fmt.Sprintf("c%03d", n), Author: users[rng.Intn(len(users))], Target: users[rng.Intn(len(users))], Text: "hi"}
			created = pComment + c.ID
			into[created] = true
			err = st.PostComment(c)
		case op < 9:
			a, b := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
			if a == b {
				return
			}
			into[pFollow+a+"/"+b] = true
			err = st.Follow(a, b)
		default:
			a, b := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
			into[pFollow+a+"/"+b] = false
			err = st.Unfollow(a, b)
		}
		drain()
		if err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		if inBatch && created != "" {
			unfinished = append(unfinished, created)
		}
	}

	for step := 0; step < 160; step++ {
		switch op := rng.Intn(20); {
		case op < 14:
			write(false)
		case op < 18:
			err := st.Batched(func() error {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					write(true)
					if rng.Intn(3) == 0 {
						check("inside a batch", false)
					}
				}
				// The scope journals the batch as it returns.
				maps.Copy(acked, pending)
				clear(pending)
				unfinished = nil
				return nil
			})
			drain()
			if err != nil {
				t.Fatal(err)
			}
		default:
			for i := rng.Intn(3); i >= 0; i-- {
				if err := leader.PutUser(User{ID: fmt.Sprintf("L%03d-%d", step, i), Name: "L"}); err != nil {
					t.Fatal(err)
				}
			}
			seq, entries := leader.SnapshotForReplication()
			preImport, imported = kvImage(st), map[string]string{}
			for _, e := range entries {
				imported[e.Key] = string(e.Val)
			}
			if err := st.ImportReplicaSnapshot(seq, entries); err != nil {
				t.Fatal(err)
			}
			drain()
			preImport, imported = nil, nil
			acked, users = map[string]bool{}, nil
			for _, k := range st.kv.Keys("") {
				acked[k] = true
				if id, ok := strings.CutPrefix(k, pUser); ok {
					users = append(users, id)
				}
			}
		}
		if rng.Intn(3) == 0 {
			check(fmt.Sprintf("after step %d", step), false)
		}
	}
	for _, step := range []string{"checkpoint.staging", "checkpoint.renamed", "import.staged", "import.reset", "import.installed"} {
		if hooked[step] == 0 {
			t.Errorf("the run never reached %s", step)
		}
	}
	t.Logf("%d crash copies, steps reached %v", copies, hooked)
}

// A failed journal append fails its mutation, and the store refuses
// every later write with the same error until it is reopened: memory
// holds a write the log does not. Reads still answer.
func TestJournalFailureStopsWrites(t *testing.T) {
	st := openDir(t, t.TempDir())
	if err := st.PutUser(User{ID: "a", Name: "A"}); err != nil {
		t.Fatal(err)
	}
	st.jn.Close()
	err := st.PutUser(User{ID: "b", Name: "B"})
	if !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("write with a failed journal: %v, want an error wrapping journal.ErrClosed", err)
	}
	for _, write := range []func() error{
		func() error { return st.PutUser(User{ID: "c", Name: "C"}) },
		func() error { return st.Follow("a", "b") },
		func() error { return st.Batched(func() error { return nil }) },
		func() error { return st.ApplyReplica(ReplicationBatch{First: 9, Last: 9}) },
	} {
		if got := write(); got == nil || got.Error() != err.Error() {
			t.Fatalf("later write: %v, want the journal failure %v", got, err)
		}
	}
	if st.HasUser("c") {
		t.Fatal("a refused write reached memory")
	}
	if _, uerr := st.User("a"); uerr != nil || st.JournalError() == nil {
		t.Fatalf("reads after the failure: %v; JournalError %v", uerr, st.JournalError())
	}
}

// With small segments and Retain 2 the data dir holds one checkpoint,
// at most Retain+1 segments and no wal.log, and a reopen replays only
// the journal records past the checkpoint.
func TestCheckpointBoundsDiskAndReplay(t *testing.T) {
	const retain = 2
	dir := t.TempDir()
	opts := journal.Options{SegmentBytes: 512, Retain: retain}
	st, err := OpenJournaled(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	active := map[string]bool{} // every segment that was ever the active one
	for i := 0; i < 120; i++ {
		if err := st.PutUser(User{ID: fmt.Sprintf("u%03d", i), Name: strings.Repeat("x", i%50)}); err != nil {
			t.Fatal(err)
		}
		st.ckWG.Wait() // for the checkpoint the write may have started
		if i%3 == 1 {
			if err := st.Follow(fmt.Sprintf("u%03d", i), "u000"); err != nil {
				t.Fatal(err)
			}
			st.ckWG.Wait()
		}
		segs := segmentNames(t, dir)
		if len(segs) > retain+1 {
			t.Fatalf("write %d: journal holds %d segments, want at most %d", i, len(segs), retain+1)
		}
		active[segs[len(segs)-1]] = true
	}
	if len(active) <= 5 {
		t.Fatalf("the writes rotated the journal %d times, want more than five", len(active)-1)
	}
	oldest, tail, _ := st.JournalStats()
	w := st.kv.Watermark()
	if w == 0 || w+1 < oldest || w > tail {
		t.Fatalf("checkpoint at %d, journal [%d,%d]", w, oldest, tail)
	}
	files := []string{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if !slices.Equal(files, []string{"journal", "snapshot.db"}) {
		t.Fatalf("data dir holds %v, want one checkpoint beside the journal", files)
	}
	before := kvImage(st)
	keys := st.kv.Keys("")
	st.Close()

	// Every record at or below the checkpoint can go: reopen must not
	// need it.
	segNames := segmentNames(t, dir)
	for i := 0; i+1 < len(segNames); i++ {
		var next uint64
		fmt.Sscanf(segNames[i+1], "journal-%016x.seg", &next)
		if next-1 <= w {
			os.Remove(filepath.Join(dir, "journal", segNames[i]))
		}
	}
	re, err := OpenJournaled(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed, err := re.ChangesSince(re.kv.Watermark(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range replayed {
		if rb.First <= w {
			t.Fatalf("record [%d,%d] at or below the checkpoint %d would be replayed", rb.First, rb.Last, w)
		}
	}
	t.Logf("checkpoint at %d of %d; reopen replayed %d records", w, tail, len(replayed))
	if !slices.Equal(re.kv.Keys(""), keys) || !maps.Equal(kvImage(re), before) || re.ChangeSeq() != tail {
		t.Fatalf("reopened store differs: %d keys (want %d), ChangeSeq %d (want %d)", len(re.kv.Keys("")), len(keys), re.ChangeSeq(), tail)
	}
}

// segmentNames lists the journal segment files of a data dir in order.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	return names
}

// A replica batch that spans the bootstrap watermark — [W-1, W+1] after
// an import at W — is journaled, so its writes survive a restart.
func TestSpanningBatchSurvivesRestart(t *testing.T) {
	leader := openDir(t, t.TempDir())
	for i := 0; i < 3; i++ {
		if err := leader.PutUser(User{ID: fmt.Sprintf("l%d", i), Name: "L"}); err != nil {
			t.Fatal(err)
		}
	}
	w, entries := leader.SnapshotForReplication()

	dir := t.TempDir()
	f := openDir(t, dir)
	if err := f.ImportReplicaSnapshot(w, entries); err != nil {
		t.Fatal(err)
	}
	rb := ReplicationBatch{
		First: w - 1, Last: w + 1,
		Events: []ChangeEvent{
			{Seq: w - 1, Kind: ChangePut, EntityType: EntityUser, ID: "l1"},
			{Seq: w, Kind: ChangePut, EntityType: EntityUser, ID: "l2"},
			{Seq: w + 1, Kind: ChangePut, EntityType: EntityUser, ID: "span"},
		},
		Puts: map[string][]byte{pUser + "span": []byte(`{"id":"span","name":"S"}`)},
	}
	if err := f.ApplyReplica(rb); err != nil {
		t.Fatal(err)
	}
	if !f.HasUser("span") || f.ChangeSeq() != w+1 {
		t.Fatalf("before restart: span=%v ChangeSeq %d", f.HasUser("span"), f.ChangeSeq())
	}
	f.Close()
	re := openDir(t, dir)
	if !re.HasUser("span") || re.ChangeSeq() != w+1 {
		t.Fatalf("after restart: span=%v ChangeSeq %d, want the batch's write at %d", re.HasUser("span"), re.ChangeSeq(), w+1)
	}
}

// A data dir written before the journal became the only log —
// snapshot.db, wal.log and journal/ — opens through a one-time
// migration: the kv log is folded over the snapshot, checkpointed at the
// journal tail and removed. The fixture is such a dir: a store that
// imported a snapshot of users p0..p2 at watermark 3 and then took
// PutUser q0, Follow(q0, p0) and PostComment c0.
func TestParentLayoutMigrates(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "prejournal"))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snapshot.db", "wal.log", "journal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("fixture lacks %s: %v", name, err)
		}
	}
	want := foldedImage(t, dir)
	check := func(st *Store) {
		t.Helper()
		for _, id := range []string{"p0", "p1", "p2", "q0"} {
			if !st.HasUser(id) {
				t.Fatalf("user %s lost in the migration", id)
			}
		}
		if !st.FollowsUser("q0", "p0") || len(st.CommentsOn("p1")) != 1 {
			t.Fatal("follow or comment lost in the migration")
		}
		if _, tail, _ := st.JournalStats(); st.ChangeSeq() != tail || st.kv.Watermark() != 8 {
			t.Fatalf("ChangeSeq %d, checkpoint at %d, journal tail %d; want the migration checkpointed at 8", st.ChangeSeq(), st.kv.Watermark(), tail)
		}
	}
	st := openDir(t, dir)
	check(st)
	if _, tail, _ := st.JournalStats(); tail != 8 || !maps.Equal(kvImage(st), want) {
		t.Fatalf("migrated image is not the snapshot with the kv log folded over it (journal tail %d)", tail)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
		t.Fatalf("wal.log survived the migration: %v", err)
	}
	if err := st.PutUser(User{ID: "after", Name: "A"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re := openDir(t, dir)
	check(re)
	if !re.HasUser("after") {
		t.Fatal("write after the migration lost")
	}
}

// FuzzOpenJournalPayload journals an arbitrary payload as record [1,1]
// and opens the store over it. Open must never panic, and it succeeds
// only when the payload decodes to a batch over [1,1]: a record that
// does not decode fails Open rather than being skipped.
func FuzzOpenJournalPayload(f *testing.F) {
	f.Add([]byte(`{"first":1,"last":1,"events":[{"seq":1,"kind":"put","entity":"user","id":"a"}],"puts":{"user/a":"e30="}}`))
	f.Add([]byte(`{"first":1,"last":1,"events":null,"dels":["user/a",""]}`))
	f.Add([]byte(`{"first":1,"last":2}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"first":1,"last":1,"puts":{"k":"not base64"}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		jn, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.Append(journal.Record{First: 1, Last: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
		jn.Close()
		var rb ReplicationBatch
		decodes := json.Unmarshal(data, &rb) == nil && rb.First == 1 && rb.Last == 1
		st, err := Open(dir, nil)
		if (err == nil) != decodes {
			t.Fatalf("Open over payload %q: %v; the payload decodes: %v", data, err, decodes)
		}
		if err != nil {
			return
		}
		defer st.Close()
		for k, v := range rb.Puts {
			if slices.Contains(rb.Dels, k) {
				continue
			}
			if got, err := st.kv.Get(k); err != nil || string(got) != string(v) {
				t.Fatalf("replayed put %q = %q, %v; want %q", k, got, err, v)
			}
		}
	})
}

// FuzzApplyReplica decodes arbitrary bytes as a replication batch — what
// a follower reads off the leader's feed — and applies it to a fresh
// journaled store. ApplyReplica must never panic. It either fails and
// leaves the change sequence where it was, or succeeds at the batch's
// Last, and then the reopened dir holds every put the batch did not
// also delete.
func FuzzApplyReplica(f *testing.F) {
	f.Add([]byte(`{"first":1,"last":1,"events":[{"seq":1,"kind":"put","entity":"user","id":"a"}],"puts":{"user/a":"e30="}}`))
	f.Add([]byte(`{"first":1,"last":1,"events":null,"dels":["user/a",""]}`))
	f.Add([]byte(`{"first":1,"last":2}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"first":1,"last":1,"puts":{"k":"not base64"}}`))
	f.Add([]byte{})
	f.Add([]byte(`{"first":3,"last":5,"epoch":2,"puts":{"user/b":"e30=","":"eA=="},"dels":["user/c"]}`))
	f.Add([]byte(`{"first":1,"last":18446744073709551615,"puts":{"k":"eA=="}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rb ReplicationBatch
		if json.Unmarshal(data, &rb) != nil {
			return
		}
		dir := t.TempDir()
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := st.ChangeSeq()
		if err := st.ApplyReplica(rb); err != nil {
			if got := st.ChangeSeq(); got != before {
				t.Fatalf("failed apply of %q (%v) moved the change sequence %d -> %d", data, err, before, got)
			}
			st.Close()
			return
		}
		if got := st.ChangeSeq(); got != rb.Last {
			t.Fatalf("applied %q: change sequence %d, want the batch's last %d", data, got, rb.Last)
		}
		st.Close()
		re, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen after applying %q: %v", data, err)
		}
		defer re.Close()
		for k, v := range rb.Puts {
			if slices.Contains(rb.Dels, k) {
				continue
			}
			if got, err := re.kv.Get(k); err != nil || string(got) != string(v) {
				t.Fatalf("applied %q: put %q reopens as %q, %v; want %q", data, k, got, err, v)
			}
		}
	})
}

// A checkpoint is skipped while a write is captured but not journaled —
// the image would hold a write no record carries — and taken at a later
// append once nothing is in flight.
func TestCheckpointSkipsInFlightWrite(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenJournaled(dir, nil, journal.Options{SegmentBytes: 256, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	inflight, journaled, crash := false, false, ""
	st.onStep = func(step string) {
		switch {
		case step == "checkpoint.staging" && !inflight:
			// Another writer's write lands in memory, not journaled yet.
			if err := st.kv.Put("inflight", []byte("x")); err != nil {
				t.Error(err)
			}
			inflight = true
		case step == "checkpoint.staging":
			journaled = true // the append before this one carried it
		case step == "checkpoint.renamed" && crash == "":
			if !journaled {
				t.Error("checkpoint taken while a write was captured but not journaled")
			}
			crash = crashCopy(t, dir)
		}
	}
	for i := 0; i < 40 && crash == ""; i++ {
		if err := st.PutUser(User{ID: fmt.Sprintf("u%02d", i), Name: "U"}); err != nil {
			t.Fatal(err)
		}
		st.ckWG.Wait()
	}
	if crash == "" {
		t.Fatal("no checkpoint was taken once the in-flight write was journaled")
	}
	if re := reopenCrash(t, crash); !re.kv.Has("inflight") {
		t.Fatal("the write journaled before the checkpoint is missing")
	}
}

// A checkpoint that fails shows in JournalError until one succeeds; an
// attempt declined because a write was in flight leaves it showing.
func TestDeclinedCheckpointKeepsFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenJournaled(dir, nil, journal.Options{SegmentBytes: 256, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A directory where the checkpoint's temp file goes fails every
	// checkpoint.
	blocker := filepath.Join(dir, "snapshot.db.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	n := 0
	writeUntil := func(what string, done func() bool) {
		t.Helper()
		for start := n; !done(); n++ {
			if n-start > 40 {
				t.Fatalf("no %s after 40 writes", what)
			}
			if err := st.PutUser(User{ID: fmt.Sprintf("u%03d", n), Name: "U"}); err != nil {
				t.Fatal(err)
			}
			st.ckWG.Wait()
		}
	}
	writeUntil("failed checkpoint", func() bool { return st.JournalError() != nil })
	failed := st.JournalError()

	declined := false
	st.onStep = func(step string) {
		if step == "checkpoint.staging" && !declined {
			// A write lands in memory, not journaled yet: the attempt
			// must decline.
			if err := st.kv.Put("inflight", []byte("x")); err != nil {
				t.Error(err)
			}
			declined = true
		}
	}
	writeUntil("declined checkpoint", func() bool { return declined })
	if got := st.JournalError(); got == nil || got.Error() != failed.Error() {
		t.Fatalf("after a declined checkpoint JournalError = %v, want the earlier failure %v", got, failed)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	writeUntil("successful checkpoint", func() bool { return st.JournalError() == nil })
	if st.kv.Watermark() == 0 {
		t.Fatal("JournalError cleared with no checkpoint written")
	}
}

// Writers on several goroutines, plain and Batched, race checkpoints
// forced by small segments. A checkpoint is declined while a write is in
// flight, so the one the first quiet append after the writers stop
// starts takes it; after a close every acknowledged write reopens, and
// the image is the checkpoint with the journal folded over it.
func TestConcurrentWritesAcrossCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenJournaled(dir, nil, journal.Options{SegmentBytes: 512, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 40
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				var err error
				if i%5 == 0 {
					err = st.Batched(func() error {
						if err := st.PutUser(User{ID: id, Name: "B"}); err != nil {
							return err
						}
						return st.PostComment(Comment{ID: "c" + id, Author: id, Target: id, Text: "x"})
					})
				} else {
					err = st.PutUser(User{ID: id, Name: "P"})
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st.ckWG.Wait()
	if err := st.PutUser(User{ID: "quiet", Name: "Q"}); err != nil {
		t.Fatal(err)
	}
	st.ckWG.Wait()
	if st.jn.Overdue() || st.kv.Watermark() == 0 {
		t.Fatalf("after a quiet append retention still holds segments (checkpoint at %d)", st.kv.Watermark())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := reopenCrash(t, dir)
	if n := len(re.Users()); n != writers*each+1 {
		t.Fatalf("reopened with %d users, want %d", n, writers*each+1)
	}
}
