package server

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
)

const (
	// gzChunk is how much input one DEFLATE block codes. The chunk
	// before it stays as match history, so the window is at most
	// 2·gzChunk bytes: inside DEFLATE's 32 KiB distance limit, and its
	// positions fit the table's uint16 slots.
	gzChunk = 8 << 10
	// gzHashBits sizes the match table: 2^12 slots of the latest window
	// position whose next four bytes hash there.
	gzHashBits = 12
	gzMinMatch = 4
	gzMaxMatch = 258
)

// gzipHeader starts every member: magic, CM=8 (deflate), no flags, no
// mtime, XFL 4 (fastest), OS 255 (unknown).
const gzipHeader = "\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\xff"

// gzipEncoder writes a response body as one RFC 1952 gzip member: the
// 10-byte header, a DEFLATE (RFC 1951) body, then the CRC-32 and the
// length of the input. The body is LZ77 — a 4-byte hash into a
// 4096-slot table, matches of 4 to 258 bytes, greedy but for a one-byte
// look-ahead — coded in fixed-Huffman blocks, or as a stored block
// wherever that is smaller. Input is coded gzChunk bytes at a time, so
// the state is bounded whatever the body's size: about 12 KB after a
// 2 KB feed page and under 40 KB after any body, where the standard
// library's gzip writer at BestSpeed holds 1.21 MB. Reset readies one
// for a response, Close ends it.
type gzipEncoder struct {
	w     io.Writer
	err   error  // the first write error; it ends the member
	crc   uint32 // of the input so far
	size  uint32 // input length mod 2^32 (ISIZE)
	win   []byte // history, then the pending input
	hist  int    // the bytes of win that are history
	out   []byte // coded bytes not yet written
	bits  uint64 // coded bits not yet in out, LSB first
	nbits uint
	table [1 << gzHashBits]uint16 // hash → window position + 1; 0: empty
}

// Reset starts a new member written to w. Nothing reaches w before the
// first block is coded.
func (e *gzipEncoder) Reset(w io.Writer) {
	e.w, e.err, e.crc, e.size = w, nil, 0, 0
	e.win, e.hist = e.win[:0], 0
	e.out, e.bits, e.nbits = append(e.out[:0], gzipHeader...), 0, 0
	clear(e.table[:])
}

func (e *gzipEncoder) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n := len(p)
	e.crc = crc32.Update(e.crc, crc32.IEEETable, p)
	e.size += uint32(n)
	for len(p) > 0 {
		// A full chunk is coded only once more input arrives, so the
		// last one is coded as the final block by Close.
		if len(e.win)-e.hist == gzChunk {
			e.block(false)
			e.slide()
		}
		k := min(e.hist+gzChunk-len(e.win), len(p))
		e.win = append(e.win, p[:k]...)
		p = p[k:]
	}
	return n, e.err
}

// Close codes the pending input as the final block, writes the trailer
// and lets go of the writer.
func (e *gzipEncoder) Close() error {
	if e.err == nil {
		e.block(true)
		e.align()
		e.out = binary.LittleEndian.AppendUint32(e.out, e.crc)
		e.out = binary.LittleEndian.AppendUint32(e.out, e.size)
		e.flush()
	}
	e.w = nil
	return e.err
}

// slide keeps the chunk just coded as the next chunk's history.
func (e *gzipEncoder) slide() {
	drop := len(e.win) - gzChunk
	e.win = e.win[:copy(e.win, e.win[drop:])]
	e.hist = gzChunk
	for i, v := range e.table[:] {
		e.table[i] = uint16(max(int(v)-drop, 0))
	}
}

// block codes the pending input as one block and writes it out: fixed
// Huffman, unless a stored block would be smaller.
func (e *gzipEncoder) block(final bool) {
	data := e.win[e.hist:]
	mark, markBits, markN := len(e.out), e.bits, e.nbits
	fin := uint64(0)
	if final {
		fin = 1
	}
	e.putBits(fin|1<<1, 3) // BFINAL, BTYPE=01
	e.lz77()
	e.putSym(256) // end of block
	coded := 8*(len(e.out)-mark) + int(e.nbits) - int(markN)
	if stored := (int(markN)+3+7)&^7 - int(markN) + 32 + 8*len(data); stored < coded {
		e.out, e.bits, e.nbits = e.out[:mark], markBits, markN
		e.putBits(fin, 3) // BFINAL, BTYPE=00
		e.align()
		n := uint16(len(data))
		e.out = binary.LittleEndian.AppendUint16(e.out, n)
		e.out = binary.LittleEndian.AppendUint16(e.out, ^n)
		e.out = append(e.out, data...)
	}
	e.flush()
}

// lz77 codes the pending input. At each position the latest earlier
// one with the same four bytes is the match candidate; a match is taken
// at its full length unless the next position starts a longer one, and
// every position it covers enters the table.
func (e *gzipEncoder) lz77() {
	win := e.win
	end := len(win)
	i := e.hist
	n, d := e.find(i)
	for i < end {
		if n == 0 {
			e.putSym(int(win[i]))
			i++
			n, d = e.find(i)
			continue
		}
		if n2, d2 := e.find(i + 1); n2 > n {
			e.putSym(int(win[i]))
			i++
			n, d = n2, d2
			continue
		}
		e.putMatch(n, d)
		for j := i + 2; j < i+n && j+gzMinMatch <= end; j++ {
			e.table[gzHash(binary.LittleEndian.Uint32(win[j:]))] = uint16(j + 1)
		}
		i += n
		n, d = e.find(i)
	}
}

// find enters position i in the table and returns the match there
// with the position the table held before, or n = 0.
func (e *gzipEncoder) find(i int) (n, dist int) {
	win := e.win
	if i+gzMinMatch > len(win) {
		return 0, 0
	}
	cur := binary.LittleEndian.Uint32(win[i:])
	h := gzHash(cur)
	c := int(e.table[h]) - 1
	e.table[h] = uint16(i + 1)
	if c < 0 || binary.LittleEndian.Uint32(win[c:]) != cur {
		return 0, 0
	}
	return gzMinMatch + matchLen(win[c+gzMinMatch:], win[i+gzMinMatch:min(i+gzMaxMatch, len(win))]), i - c
}

func gzHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - gzHashBits) }

// matchLen is the length of the common prefix of a and b, len(a) ≥ len(b).
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// fixedCodes holds the fixed Huffman code of each literal/length symbol
// (RFC 1951 §3.2.6), bit-reversed for LSB-first output, with its length
// in the bits above 16.
var fixedCodes = func() (t [286]uint32) {
	for s := range t {
		code, n := 0x30+s, 8
		switch {
		case s >= 280:
			code, n = 0xc0+s-280, 8
		case s >= 256:
			code, n = s-256, 7
		case s >= 144:
			code, n = 0x190+s-144, 9
		}
		t[s] = uint32(bits.Reverse16(uint16(code))>>(16-n)) | uint32(n)<<16
	}
	return t
}()

func (e *gzipEncoder) putSym(s int) {
	c := fixedCodes[s]
	e.putBits(uint64(c&0xffff), uint(c>>16))
}

// putMatch codes a match of n bytes at distance dist: the length symbol
// and its extra bits, then the 5-bit distance symbol and its extra bits.
func (e *gzipEncoder) putMatch(n, dist int) {
	l := n - 3
	switch {
	case l < 8:
		e.putSym(257 + l)
	case n == gzMaxMatch:
		e.putSym(285)
	default:
		k := bits.Len(uint(l)) - 1
		e.putSym(257 + 4*(k-1) + (l>>(k-2))&3)
		e.putBits(uint64(l&(1<<(k-2)-1)), uint(k-2))
	}
	d := dist - 1
	if d < 4 {
		e.putBits(uint64(bits.Reverse8(uint8(d))>>3), 5)
		return
	}
	k := bits.Len(uint(d)) - 1
	e.putBits(uint64(bits.Reverse8(uint8(2*k+(d>>(k-1))&1))>>3), 5)
	e.putBits(uint64(d&(1<<(k-1)-1)), uint(k-1))
}

func (e *gzipEncoder) putBits(v uint64, n uint) {
	e.bits |= v << e.nbits
	e.nbits += n
	if e.nbits >= 32 {
		e.out = binary.LittleEndian.AppendUint32(e.out, uint32(e.bits))
		e.bits >>= 32
		e.nbits -= 32
	}
}

// align moves the pending bits into out, padding the last byte.
func (e *gzipEncoder) align() {
	for e.nbits > 0 {
		e.out = append(e.out, byte(e.bits))
		e.bits >>= 8
		e.nbits -= min(e.nbits, 8)
	}
}

// flush writes the coded whole bytes.
func (e *gzipEncoder) flush() {
	if e.err == nil && len(e.out) > 0 {
		_, e.err = e.w.Write(e.out)
	}
	e.out = e.out[:0]
}
