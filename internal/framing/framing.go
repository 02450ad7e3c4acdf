// Package framing is the length-prefixed, CRC-32-framed byte discipline
// shared by the snapshot file format (version 2, PR 4/5) and the write-ahead
// log. Two shapes exist:
//
//   - whole files (WriteFile/ReadFile): one payload behind a fixed header —
//     magic | uint64 length | uint32 CRC-32 | payload — verified section by
//     section so truncation and corruption yield descriptive errors, never a
//     panic and never silently wrong bytes;
//   - streams of records (AppendRecord/ReadRecord): each record is
//     uint32 length | uint32 CRC-32 | payload, so a reader can detect the
//     torn tail a crash leaves behind — a truncated or checksum-failing
//     record — and distinguish it from a clean end of stream.
//
// Records live in caller storage: AppendRecord appends a frame to a slice,
// and ReadRecord reads a payload into the storage of the slice it is handed,
// so a caller that keeps one buffer frames and reads without allocating. A
// length field is a claim, not a fact: ReadRecord allocates what dst cannot
// hold as the bytes arrive, never more than 64 KiB past them, so a peer that
// announces 8 MiB and sends 10 bytes costs one step, not 8 MiB.
//
// All integers are little-endian; the checksum is CRC-32 (IEEE) over the
// payload only.
package framing

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// fileHeaderLen is the fixed header after the magic: length + CRC-32.
const fileHeaderLen = 8 + 4

// HeaderSize returns the fixed prefix before a file's payload: magic +
// length + CRC-32.
func HeaderSize(magic string) int { return len(magic) + fileHeaderLen }

// WriteFile writes one framed payload to path (truncating an existing file)
// and fsyncs it before closing: after WriteFile returns nil the bytes are
// durable.
func WriteFile(path, magic string, payload []byte) error {
	header := make([]byte, HeaderSize(magic))
	copy(header, magic)
	binary.LittleEndian.PutUint64(header[len(magic):], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[len(magic)+8:], crc32.ChecksumIEEE(payload))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(header); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads and verifies a framed file section by section. kind names
// the file format in error messages (e.g. "spatialcluster snapshot"); errors
// carry no path — the caller adds its own context. The length field is
// checked against the real file size before the payload is allocated, so a
// corrupted length fails cleanly instead of attempting a huge allocation.
func ReadFile(path, magic, kind string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}

	headerSize := HeaderSize(magic)
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(f, header); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("truncated %s: file holds %d of the %d header bytes",
				kind, fi.Size(), headerSize)
		}
		return nil, fmt.Errorf("reading %s header: %w", kind, err)
	}
	if string(header[:len(magic)]) != magic {
		return nil, fmt.Errorf("not a %s (or an unsupported format version)", kind)
	}
	length := binary.LittleEndian.Uint64(header[len(magic):])
	sum := binary.LittleEndian.Uint32(header[len(magic)+8:])

	want := int64(headerSize) + int64(length)
	if int64(length) < 0 || want != fi.Size() {
		if fi.Size() < want {
			return nil, fmt.Errorf("truncated %s: payload holds %d of %d bytes",
				kind, fi.Size()-int64(headerSize), length)
		}
		return nil, fmt.Errorf("corrupted %s: %d trailing bytes after the %d-byte payload",
			kind, fi.Size()-want, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("reading %s payload of %d bytes: %w", kind, length, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("corrupted %s: payload checksum %08x, header says %08x",
			kind, got, sum)
	}
	return payload, nil
}

// recordHeaderLen frames every stream record: uint32 length + uint32 CRC-32.
const recordHeaderLen = 8

// RecordError reports a record that cannot be read back intact — truncated
// mid-header, truncated mid-payload, an implausible length, or a checksum
// mismatch. At the tail of a write-ahead log segment it is the signature of
// a torn write; anywhere else it is corruption.
type RecordError struct {
	Reason string
}

func (e *RecordError) Error() string { return "invalid record: " + e.Reason }

// AppendRecord appends one framed record — header, then payload — to dst and
// returns the extended slice.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// RecordSize returns the framed size of a payload without writing it.
func RecordSize(payloadLen int) int { return recordHeaderLen + payloadLen }

// growStep is how far past the bytes received ReadRecord lets its buffer run:
// a length field alone buys at most this much memory.
const growStep = 64 << 10

// ReadRecord reads the next framed record from r into dst's storage (its
// contents are ignored) and returns the payload. It returns io.EOF at a clean
// end of stream (no bytes remain), and a *RecordError when the record is
// truncated, oversized (length > maxLen) or fails its checksum. Beyond
// dst's capacity the payload is allocated as it arrives, growStep bytes at a
// time, so a record that claims more than it delivers costs no more than one
// step past what was delivered.
func ReadRecord(r io.Reader, maxLen uint32, dst []byte) ([]byte, error) {
	header := dst[:0]
	if cap(header) < recordHeaderLen {
		header = make([]byte, 0, recordHeaderLen)
	}
	header = header[:recordHeaderLen]
	if _, err := io.ReadFull(r, header); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, &RecordError{Reason: "truncated record header"}
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(header)
	sum := binary.LittleEndian.Uint32(header[4:])
	if length > maxLen {
		return nil, &RecordError{Reason: fmt.Sprintf("implausible record length %d (max %d)", length, maxLen)}
	}
	payload, err := readPayload(r, int(length), dst)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, &RecordError{Reason: fmt.Sprintf("truncated record payload: %d bytes promised", length)}
		}
		return nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, &RecordError{Reason: fmt.Sprintf("record checksum %08x, header says %08x", got, sum)}
	}
	return payload, nil
}

// readPayload reads n bytes from r: into dst's storage as far as it reaches,
// the rest in steps of at most growStep, each allocated once the one before
// it is full. More than one piece is joined once the last has arrived.
func readPayload(r io.Reader, n int, dst []byte) ([]byte, error) {
	p := dst[:min(n, cap(dst))]
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	var steps [][]byte
	for have := len(p); have < n; {
		step := make([]byte, min(n-have, growStep))
		if _, err := io.ReadFull(r, step); err != nil {
			return nil, err
		}
		steps = append(steps, step)
		have += len(step)
	}
	switch {
	case len(steps) == 0:
		return p, nil
	case len(steps) == 1 && len(p) == 0:
		return steps[0], nil
	}
	whole := append(make([]byte, 0, n), p...)
	for _, step := range steps {
		whole = append(whole, step...)
	}
	return whole, nil
}
