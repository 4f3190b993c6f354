package kvstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
)

// Record framing (little-endian), shared by the checkpoint file and the
// log a pre-journal data dir still holds:
//
//	crc32(payload) uint32
//	payloadLen     uint32
//	payload        = op byte | keyLen uvarint | key | val
//
// A checkpoint is one put record per key, in key order, closed by a
// trailer record (opTrailer, empty key, val = record count uint64 |
// log position uint64). A torn or bit-flipped record fails the length or
// the CRC check, and a file cut at a record boundary lacks the trailer or
// miscounts it, so a damaged checkpoint is never mistaken for a whole one.
const (
	opPut     byte = 1
	opDelete  byte = 2 // only in the log of a pre-journal data dir
	opTrailer byte = 3
)

// writeRecord frames one record onto w, a buffer that keeps the first
// write error for its Flush.
func writeRecord(w io.Writer, op byte, key, val []byte) {
	var hdr [9 + binary.MaxVarintLen64]byte
	hdr[8] = op
	n := 9 + binary.PutUvarint(hdr[9:], uint64(len(key)))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[8:n]), crc32.IEEETable, key)
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.Update(crc, crc32.IEEETable, val))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n-8+len(key)+len(val)))
	w.Write(hdr[:n])
	w.Write(key)
	w.Write(val)
}

// writeImage frames items (in ascending key order) as a checkpoint at
// log position pos onto w: a put record per item, then the trailer.
func writeImage(w io.Writer, items []Entry, pos uint64) {
	for _, it := range items {
		writeRecord(w, opPut, []byte(it.Key), it.Val)
	}
	var val [16]byte
	binary.LittleEndian.PutUint64(val[0:8], uint64(len(items)))
	binary.LittleEndian.PutUint64(val[8:16], pos)
	writeRecord(w, opTrailer, nil, val[:])
}

// readImageFile decodes a checkpoint file: its put records, in file
// order, and the trailer that closes it. It fails unless every byte
// decodes, the keys are strictly ascending, the trailer is the last
// record and it counts the puts before it. A file with no trailer at all
// is accepted only when legacy is set: the snapshot of a pre-journal
// data dir, which wrote none.
func readImageFile(path string, legacy bool) (items []Entry, w uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	closed, bad := false, false
	res := replayRecords(data, func(op byte, key, val []byte) {
		switch {
		case closed || bad:
			bad = true // nothing follows the trailer
		case op == opPut && (len(items) == 0 || string(key) > items[len(items)-1].Key):
			items = append(items, Entry{Key: string(key), Val: append([]byte(nil), val...)})
		case op == opTrailer && len(key) == 0 && len(val) == 16 && binary.LittleEndian.Uint64(val) == uint64(len(items)):
			w, closed = binary.LittleEndian.Uint64(val[8:]), true
		default:
			bad = true
		}
	})
	if bad || res.offset != len(data) || (!closed && !legacy) {
		return nil, 0, errors.New("torn, corrupt or out of key order")
	}
	return items, w, nil
}

type replayResult struct {
	offset int
	count  int
}

// replayRecords decodes records until the data ends or a record fails
// validation, returning how far it got: everything after a record that
// fails is unreachable.
func replayRecords(data []byte, apply func(op byte, key, val []byte)) replayResult {
	off := 0
	count := 0
	for off+8 <= len(data) {
		crc := binary.LittleEndian.Uint32(data[off : off+4])
		plen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		if off+8+plen > len(data) {
			break // torn record
		}
		payload := data[off+8 : off+8+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt record
		}
		op, key, val, err := decodePayload(payload)
		if err != nil {
			break
		}
		apply(op, key, val)
		off += 8 + plen
		count++
	}
	return replayResult{offset: off, count: count}
}

func decodePayload(p []byte) (op byte, key, val []byte, err error) {
	if len(p) < 2 {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	op = p[0]
	klen, n := binary.Uvarint(p[1:])
	if n <= 0 || klen > uint64(len(p)-1-n) {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	key = p[1+n : 1+n+int(klen)]
	val = p[1+n+int(klen):]
	return op, key, val, nil
}
