package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// gzipRoundTrip compresses body through a pooled encoder, cut into
// writes at points drawn from seed, and decodes the member with
// compress/gzip, which checks the CRC-32 and ISIZE at its end. It
// returns the compressed size.
func gzipRoundTrip(t *testing.T, body []byte, seed uint64) int {
	t.Helper()
	var wire bytes.Buffer
	e := gzPool.Get().(*gzipEncoder)
	defer gzPool.Put(e)
	e.Reset(&wire)
	rng := rand.New(rand.NewPCG(seed, 0))
	for rest := body; len(rest) > 0; {
		k := 1 + rng.IntN(min(len(rest), 1<<rng.IntN(17)))
		if n, err := e.Write(rest[:k]); n != k || err != nil {
			t.Fatalf("Write(%d bytes) = %d, %v", k, n, err)
		}
		rest = rest[k:]
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	size := wire.Len()
	r := bytes.NewReader(wire.Bytes())
	gr, err := gzip.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	gr.Multistream(false)
	got, err := io.ReadAll(gr)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("round trip: got %d bytes, want %d", len(got), len(body))
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the gzip member", r.Len())
	}
	return size
}

// FuzzGzipRoundTrip: any body, written in any pieces, decodes through
// compress/gzip to exactly itself.
func FuzzGzipRoundTrip(f *testing.F) {
	text := []byte(strings.Repeat(`{"seq":208,"at":1792450608,"actor":"u016","verb":"comment","object":"p-sigmod12-s00-2"},`, 800))
	noise := make([]byte, 20<<10)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}
	for _, body := range [][]byte{nil, {'x'}, text[:1023], text[:1024], text[:1025], text[:70<<10], noise} {
		f.Add(body, uint64(len(body)))
	}
	f.Fuzz(func(t *testing.T, body []byte, seed uint64) { gzipRoundTrip(t, body, seed) })
}

// TestGzipFootprint: an encoder that compressed a 2 KB feed page has
// allocated at most 64 KiB, where a compress/gzip writer at BestSpeed
// allocates 1.21 MB.
func TestGzipFootprint(t *testing.T) {
	body, err := os.ReadFile("testdata/feed-u009.json")
	if err != nil {
		t.Fatal(err)
	}
	type encoder interface {
		Reset(io.Writer)
		io.WriteCloser
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		e := gzPool.New().(encoder)
		e.Reset(io.Discard)
		if _, err := e.Write(body); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Fatalf("a fresh encoder allocated %d B for a %d B body; want at most 64 KiB", per, len(body))
	}
}

// TestGzipRatio: on real feed pages (the first 20-event page of four
// users of `hived -shards 4 -seed 64`) the encoder's output is at most
// 1.10× what compress/gzip writes at BestSpeed. feed-u058 is the page
// of the 64 where the ratio was worst (1.08); over all 64 it was 1.04.
func TestGzipRatio(t *testing.T) {
	pages, err := filepath.Glob("testdata/feed-*.json")
	if err != nil || len(pages) == 0 {
		t.Fatalf("no feed pages: %v", err)
	}
	var ours, std int
	for _, p := range pages {
		body, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		ours += gzipRoundTrip(t, body, 1)
		var wire bytes.Buffer
		gz, _ := gzip.NewWriterLevel(&wire, gzip.BestSpeed) // a valid level never errs
		if _, err := gz.Write(body); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		std += wire.Len()
	}
	if float64(ours) > 1.10*float64(std) {
		t.Fatalf("%d pages: %d B compressed, BestSpeed %d B (%.3f×); want at most 1.10×", len(pages), ours, std, float64(ours)/float64(std))
	}
}
