package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Record framing (little-endian):
//
//	crc32(payload) uint32
//	payloadLen     uint32
//	payload        = op byte | keyLen uvarint | key | val
//
// A torn final record (partial write before crash) fails either the length
// or the CRC check; recovery truncates the log at the last good record.
const (
	opPut    byte = 1
	opDelete byte = 2
)

type walWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func openWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	return &walWriter{f: f, bw: bufio.NewWriter(f)}, nil
}

func (w *walWriter) append(op byte, key, val []byte) error {
	var buf bytes.Buffer
	writeRecord(&buf, op, key, val)
	if _, err := w.bw.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	// Flush to the OS on every record: cheap at this scale and it keeps
	// the durability story simple (no group-commit needed for a demo
	// platform's traffic).
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("kvstore: wal flush: %w", err)
	}
	return nil
}

func (w *walWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("kvstore: wal flush on close: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("kvstore: wal close: %w", err)
	}
	return nil
}

func writeRecord(buf *bytes.Buffer, op byte, key, val []byte) {
	var payload bytes.Buffer
	payload.WriteByte(op)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	payload.Write(tmp[:n])
	payload.Write(key)
	payload.Write(val)

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload.Bytes()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(payload.Len()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())
}

// replayWAL replays the log at path, truncating any torn tail.
func replayWAL(path string, apply func(op byte, key, val []byte)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("kvstore: read wal: %w", err)
	}
	goodLen, err := replayRecords(data, apply)
	if err != nil {
		return err
	}
	if goodLen.offset < len(data) {
		// Torn tail: truncate so future appends start from a clean state.
		if err := os.Truncate(path, int64(goodLen.offset)); err != nil {
			return fmt.Errorf("kvstore: truncate torn wal: %w", err)
		}
	}
	return nil
}

type replayResult struct {
	offset int
	count  int
}

// replayRecords decodes records until the data ends or a record fails
// validation, returning how far it got. A corrupt *interior* record means
// everything after it is unreachable, which matches truncate-on-recovery
// semantics.
func replayRecords(data []byte, apply func(op byte, key, val []byte)) (replayResult, error) {
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
	return replayResult{offset: off, count: count}, nil
}

func decodePayload(p []byte) (op byte, key, val []byte, err error) {
	if len(p) < 2 {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	op = p[0]
	klen, n := binary.Uvarint(p[1:])
	if n <= 0 || 1+n+int(klen) > len(p) {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	key = p[1+n : 1+n+int(klen)]
	val = p[1+n+int(klen):]
	return op, key, val, nil
}
