package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hive/api"
	"hive/client"
	"hive/internal/workload"
	"hive/internal/workload/httpload"
)

// Everything the benchmark builds or a server writes lives under
// buildDir in the checkout; results and logs go to the out directory.
const buildDir = ".bench_build"

// hivedFlags are the flags an instance of the workload gets besides
// -addr. Metrics stay at the shipped default (on); the flush policy is
// whatever the commit under test does. dataDir is where a durable
// workload's -data points. Builds run on one worker: on the 2-core box
// the default of two made the first build no faster and took 0.42 s or
// 0.77 s by turns, which set-up time then did too (0.7 s or 1.05 s),
// and a compaction on both cores leaves none for the traffic beside it.
func (spec workloadSpec) hivedFlags(dataDir string) []string {
	flags := []string{"-quiet", "-compact-interval", "3s", "-workers", "1"}
	if spec.Durable {
		flags = append(flags, "-data", dataDir)
	}
	if spec.Shards > 1 {
		flags = append(flags, "-shards", strconv.Itoa(spec.Shards))
	}
	return flags
}

// repoRoot finds the module root (the directory holding go.mod and
// cmd/hived) from the working directory upwards.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hived", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod with cmd/hived above the working directory; run from the repository checkout")
		}
		dir = parent
	}
}

// goEnv pins the Go build cache and temp dir inside the checkout so a
// run reads and writes nothing outside it.
func goEnv(root string) []string {
	env := os.Environ()
	bd := filepath.Join(root, buildDir)
	return append(env,
		"GOCACHE="+filepath.Join(bd, "gocache"),
		"GOTMPDIR="+filepath.Join(bd, "tmp"),
	)
}

// buildHived compiles cmd/hived from the checkout's source.
func buildHived(ctx context.Context, root string) (string, error) {
	bd := filepath.Join(root, buildDir)
	for _, d := range []string{"bin", "tmp", "gocache", "run"} {
		if err := os.MkdirAll(filepath.Join(bd, d), 0o755); err != nil {
			return "", err
		}
	}
	bin := filepath.Join(bd, "bin", "hived")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/hived")
	cmd.Dir = root
	cmd.Env = goEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build hived: %v\n%s", err, out)
	}
	return bin, nil
}

// procRegistry tracks live children so that an error path, a signal or
// the watchdog can kill them all before the benchmark exits.
var procRegistry struct {
	mu    sync.Mutex
	procs map[*hived]bool
}

func killAllChildren() {
	procRegistry.mu.Lock()
	procs := make([]*hived, 0, len(procRegistry.procs))
	for h := range procRegistry.procs {
		procs = append(procs, h)
	}
	procRegistry.mu.Unlock()
	for _, h := range procs {
		h.stop()
	}
}

// hived is one running server process and the files it owns.
type hived struct {
	cmd     *exec.Cmd
	base    string
	dataDir string // "" for in-memory
	runDir  string
	stderr  *os.File
	hc      *http.Client
	exited  chan struct{} // closed once the process has been reaped
	once    sync.Once
}

// freePort asks the kernel for an unused loopback port. The port is
// released before hived binds it; boot retries cover the rare loss of
// that race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newHTTPClient returns a client holding at most `clients` keep-alive
// connections to the server.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// startHived boots one instance for the workload and waits until it
// answers healthz. stderrPath receives the server's log.
func startHived(ctx context.Context, bin, root string, spec workloadSpec, stderrPath string) (*hived, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		h, err := bootOnce(ctx, bin, root, spec, stderrPath)
		if err == nil {
			return h, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func bootOnce(ctx context.Context, bin, root string, spec workloadSpec, stderrPath string) (*hived, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(root, buildDir, "run"), spec.Name+"-")
	if err != nil {
		return nil, err
	}
	h := &hived{runDir: runDir, hc: newHTTPClient()}
	h.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	if spec.Durable {
		h.dataDir = filepath.Join(runDir, "data")
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, spec.hivedFlags(h.dataDir)...)
	h.stderr, err = os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	h.cmd = exec.Command(bin, args...)
	h.cmd.Dir = runDir
	h.cmd.Stdout = h.stderr
	h.cmd.Stderr = h.stderr
	if err := h.cmd.Start(); err != nil {
		h.stderr.Close()
		os.RemoveAll(runDir)
		return nil, fmt.Errorf("start hived: %w", err)
	}
	h.exited = make(chan struct{})
	go func() {
		_ = h.cmd.Wait() // the exit status of a killed server carries no news
		close(h.exited)
	}()
	procRegistry.mu.Lock()
	if procRegistry.procs == nil {
		procRegistry.procs = map[*hived]bool{}
	}
	procRegistry.procs[h] = true
	procRegistry.mu.Unlock()

	c := client.New(h.base, client.WithHTTPClient(h.hc))
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := c.Healthz(ctx); err == nil {
			return h, nil
		}
		select {
		case <-h.exited:
			deadline = time.Time{}
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			h.stop()
			return nil, fmt.Errorf("hived on %s did not become healthy (see %s)", h.base, stderrPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the process, waits for it to end and removes its files. It
// is safe to call more than once and from several goroutines.
func (h *hived) stop() {
	h.once.Do(func() {
		_ = h.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
		<-h.exited
		h.stderr.Close()
		h.hc.CloseIdleConnections()
		os.RemoveAll(h.runDir)
		procRegistry.mu.Lock()
		delete(procRegistry.procs, h)
		procRegistry.mu.Unlock()
	})
}

// newClient returns an SDK client over the instance's two connections.
// Healthz teaches it the shard map, which turns client-side shard
// routing on for sharded workloads.
func (h *hived) newClient(ctx context.Context) (*client.Client, error) {
	c := client.New(h.base, client.WithHTTPClient(h.hc))
	if _, err := c.Healthz(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// quiesce waits until the server reports no unapplied events and no
// compaction due, or a few seconds pass: a server that never settles is
// measured as it is. It talks over its own client so the SDK request
// count stays equal to the ops sent.
func (h *hived) quiesce(ctx context.Context) error {
	c := client.New(h.base, client.WithHTTPClient(h.hc))
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz, err := c.Healthz(ctx)
		if err != nil {
			return fmt.Errorf("quiesce: %w", err)
		}
		pending := hz.Delta.PendingEvents
		for _, sh := range hz.Shards {
			pending += sh.PendingEvents
		}
		if (!hz.Stale && !hz.Delta.CompactionDue && pending == 0) || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// setUp is the timed set-up of one instance: boot, load the dataset
// through the SDK's batch path, build the first snapshot, and see
// healthz report it fresh.
func setUp(ctx context.Context, bin, root string, spec workloadSpec, ds *workload.Dataset, stderrPath string) (*hived, time.Duration, error) {
	start := time.Now()
	h, err := startHived(ctx, bin, root, spec, stderrPath)
	if err != nil {
		return nil, 0, err
	}
	c, err := h.newClient(ctx)
	if err == nil {
		err = httpload.Batch(ctx, c, ds, 0)
	}
	if err == nil {
		err = c.Refresh(ctx, true)
	}
	if err == nil {
		var hz api.Health
		hz, err = c.Healthz(ctx)
		if err == nil && (hz.Stale || !hz.Snapshot) {
			err = fmt.Errorf("healthz reports stale=%v snapshot=%v after refresh", hz.Stale, hz.Snapshot)
		}
	}
	if err != nil {
		h.stop()
		return nil, 0, fmt.Errorf("set-up %s: %w", spec.Name, err)
	}
	return h, time.Since(start), nil
}

// --- scraping ------------------------------------------------------------------

// scrape is one reading of GET /metrics: every sample line, keyed by
// its full series text (name plus label set).
type scrape map[string]float64

func (h *hived) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family whose label text contains all of
// `with` and none of `without`.
func (s scrape) sum(family string, with, without []string) float64 {
	total := 0.0
	for series, v := range s {
		name, labels, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		ok := true
		for _, w := range with {
			ok = ok && strings.Contains(labels, w)
		}
		for _, w := range without {
			ok = ok && !strings.Contains(labels, w)
		}
		if ok {
			total += v
		}
	}
	return total
}

// auxRoutes are the routes the benchmark itself calls around the timed
// phases; they are left out of the request accounting.
var auxRoutes = []string{`route="/metrics"`, `route="/api/v1/healthz"`}

// --- /proc and disk ------------------------------------------------------------

// procStat is what /proc says about the server process.
type procStat struct {
	RSSPeakMB float64 // VmHWM
	RSSMB     float64 // VmRSS
	CPUSec    float64 // utime + stime
}

// clkTck is USER_HZ, fixed at 100 on every Linux port Go runs on.
const clkTck = 100

func (h *hived) procStat() (procStat, error) {
	var ps procStat
	pid := h.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmHWM:":
			ps.RSSPeakMB = kb / 1024
		case "VmRSS:":
			ps.RSSMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	ps.CPUSec = (utime + stime) / clkTck
	return ps, nil
}

// sampleRSS reads the server's resident set every interval until the
// returned stop function is called, which yields the samples in MB. The
// run reports their median: the peak of a garbage-collected process is
// decided by when a collection happened to run, the median is not.
func (h *hived) sampleRSS(every time.Duration) (stop func() []float64) {
	var samples []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if ps, err := h.procStat(); err == nil {
				samples = append(samples, ps.RSSMB)
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// diskUsage sums the data directory's bytes by layer: the kvstore's
// write-ahead log, the change journal, and everything else.
type diskUsage struct{ WAL, Journal, Other int64 }

func (h *hived) diskUsage() diskUsage {
	var du diskUsage
	if h.dataDir == "" {
		return du
	}
	_ = filepath.WalkDir(h.dataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files vanish under compaction; skip them
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		switch {
		case strings.Contains(path, string(filepath.Separator)+"journal"+string(filepath.Separator)):
			du.Journal += info.Size()
		case d.Name() == "wal.log":
			du.WAL += info.Size()
		default:
			du.Other += info.Size()
		}
		return nil
	})
	return du
}
