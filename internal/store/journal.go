package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/graph"
)

// Journal record layout (little-endian):
//
//	[4B payload length][4B CRC32C of payload][payload]
//
// payload:
//
//	uvarint seq
//	byte    op (graph.MutationOp's value)
//	uvarint from+1
//	uvarint to+1
//	uvarint len(label) + label bytes
//
// The file begins with the 8-byte magic "QGJRNL\x00\x01". Recovery reads
// records until EOF, a torn tail (short read), or a CRC mismatch; the
// valid prefix is kept and the tail discarded — the standard write-ahead
// log contract: an fsynced record is durable, an interrupted append is
// rolled back.

var journalMagic = []byte("QGJRNL\x00\x01")

const maxRecordSize = 1 << 20 // 1 MiB; a single mutation is tiny

// ErrCorruptJournal is wrapped by recovery errors that are *not* a clean
// torn tail (e.g. a bad magic header).
var ErrCorruptJournal = errors.New("store: corrupt journal")

// encodeRecord appends one record to buf: the payload is written in place
// after room for the header, which is filled in once the payload is known.
func encodeRecord(buf []byte, seq uint64, m graph.Mutation) []byte {
	head := len(buf)
	buf = append(buf, make([]byte, 8)...)
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, byte(m.Op))
	buf = binary.AppendUvarint(buf, uint64(m.From+1))
	buf = binary.AppendUvarint(buf, uint64(m.To+1))
	buf = binary.AppendUvarint(buf, uint64(len(m.Label)))
	buf = append(buf, m.Label...)

	payload := buf[head+8:]
	binary.LittleEndian.PutUint32(buf[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[head+4:], crc32.Checksum(payload, crcTable))
	return buf
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func decodePayload(payload []byte) (seq uint64, m graph.Mutation, err error) {
	rd := payload
	take := func() (uint64, bool) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, false
		}
		rd = rd[n:]
		return v, true
	}
	seq, ok := take()
	if !ok || len(rd) == 0 {
		return 0, m, fmt.Errorf("%w: truncated payload", ErrCorruptJournal)
	}
	m.Op = graph.MutationOp(rd[0])
	rd = rd[1:]
	from, ok := take()
	if !ok {
		return 0, m, fmt.Errorf("%w: truncated from", ErrCorruptJournal)
	}
	to, ok := take()
	if !ok {
		return 0, m, fmt.Errorf("%w: truncated to", ErrCorruptJournal)
	}
	n, ok := take()
	if !ok || uint64(len(rd)) != n {
		return 0, m, fmt.Errorf("%w: bad label length", ErrCorruptJournal)
	}
	m.From = graph.NodeID(from) - 1
	m.To = graph.NodeID(to) - 1
	m.Label = string(rd)
	return seq, m, nil
}

// storeFile is what the store needs of a file it writes: the journal, and
// the temporary file WriteFile renames into place. *os.File has it.
type storeFile interface {
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// journalWriter appends records to an open journal file. size is the
// file's length: learnt when the file is created or opened, advanced by
// every append, so nobody has to ask the file system per batch.
type journalWriter struct {
	f     storeFile
	buf   []byte
	size  int64
	fsync bool
	// broken is why a failed append's bytes could not be cut from the file:
	// every later append is refused, since it would land after them.
	broken error
}

func createJournal(path string, fsync bool) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(journalMagic); err != nil {
		f.Close()
		return nil, err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &journalWriter{f: f, size: int64(len(journalMagic)), fsync: fsync}, nil
}

func openJournalForAppend(path string, fsync bool) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &journalWriter{f: f, size: fi.Size(), fsync: fsync}, nil
}

// append writes one batch of records and optionally fsyncs once for the
// whole batch. A batch whose write or fsync fails is cut from the file
// again, so the journal holds exactly the batches whose append returned
// nil; if it cannot be cut, the writer refuses every later batch.
func (w *journalWriter) append(seqStart uint64, muts []graph.Mutation) error {
	if w.broken != nil {
		return fmt.Errorf("journal holds a failed append it could not cut: %w", w.broken)
	}
	w.buf = w.buf[:0]
	for i, m := range muts {
		w.buf = encodeRecord(w.buf, seqStart+uint64(i), m)
	}
	_, err := w.f.Write(w.buf)
	if err == nil && w.fsync {
		err = w.f.Sync()
	}
	if err != nil {
		w.broken = w.cut()
		return err
	}
	w.size += int64(len(w.buf))
	return nil
}

// cut truncates the file to the size before the failed append and moves
// the write offset back there.
func (w *journalWriter) cut() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return err
	}
	if w.fsync {
		return w.f.Sync()
	}
	return nil
}

func (w *journalWriter) Close() error { return w.f.Close() }

// RecoveryInfo reports what journal replay found.
type RecoveryInfo struct {
	// Applied is the number of journal records applied on top of the
	// snapshot.
	Applied int
	// SkippedOld is the number of records with seq ≤ the snapshot's seq
	// (already folded into the snapshot by an interrupted compaction).
	SkippedOld int
	// TornTail is true when recovery stopped at a truncated or
	// CRC-corrupt tail; the valid prefix was kept.
	TornTail bool
}

// replayJournal streams records from r, calling apply for each record
// with seq > afterSeq. It stops cleanly at EOF or at the first torn/corrupt
// record (reported via RecoveryInfo.TornTail). A missing or wrong magic
// header is a hard error: that file was never a journal.
func replayJournal(r io.Reader, afterSeq uint64, apply func(seq uint64, m graph.Mutation) error) (RecoveryInfo, error) {
	var info RecoveryInfo
	br := bufio.NewReader(r)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		if err == io.EOF {
			return info, fmt.Errorf("%w: empty journal file", ErrCorruptJournal)
		}
		return info, fmt.Errorf("%w: short magic", ErrCorruptJournal)
	}
	if string(magic) != string(journalMagic) {
		return info, fmt.Errorf("%w: bad magic", ErrCorruptJournal)
	}
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return info, nil // clean end
			}
			info.TornTail = true // partial header
			return info, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordSize {
			info.TornTail = true
			return info, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			info.TornTail = true
			return info, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			info.TornTail = true
			return info, nil
		}
		seq, m, err := decodePayload(payload)
		if err != nil {
			// CRC passed but the payload is malformed: this is real
			// corruption, not a torn append.
			return info, err
		}
		if seq <= afterSeq {
			info.SkippedOld++
			continue
		}
		if err := apply(seq, m); err != nil {
			return info, err
		}
		info.Applied++
	}
}
