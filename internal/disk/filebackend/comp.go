package filebackend

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"spatialcluster/internal/disk"
)

// Compressed file layout. Every page lives in a fixed slot of
// PageSize+slotHeaderLen bytes so page IDs keep their arithmetic offsets; the
// slot starts with a 4-byte header
//
//	flag u8 | stored length u16 (little-endian) | reserved u8
//
// followed by storedLen payload bytes; the rest of the slot is slack that is
// never written. The flags:
//
//	flagZero (0): an all-zero page, stored in 0 bytes. Truncate-extended
//	              slots are all zeros, so a fresh Alloc needs no write.
//	flagRaw  (1): the page verbatim (compression did not shrink it).
//	flagComp (2): the delta+varint encoding of compressPage.
//
// Writes put only header+payload on disk (the measured byte saving); a
// multi-page read transfers the whole run span in one positioned read —
// reading through the inter-slot slack exactly like the SLM schedule reads
// through gaps — and decompresses each slot out of it.
const (
	slotHeaderLen = 4
	slotSize      = disk.PageSize + slotHeaderLen

	flagZero = 0
	flagRaw  = 1
	flagComp = 2
)

// CompStats reports what the compressed page store paid and saved so far:
// logical page bytes vs bytes put on disk, and the CPU time spent coding.
// All fields are monotone counters.
type CompStats struct {
	PagesZero    int64 // pages stored as all-zero markers
	PagesRaw     int64 // pages stored verbatim (incompressible)
	PagesComp    int64 // pages stored delta+varint encoded
	RawBytes     int64 // logical bytes presented for writing
	StoredBytes  int64 // header+payload bytes actually written
	CompressNS   int64
	DecompressNS int64
}

// Saved returns the written bytes avoided by compression.
func (s CompStats) Saved() int64 { return s.RawBytes - s.StoredBytes }

// CodecSeconds returns the CPU time spent encoding and decoding.
func (s CompStats) CodecSeconds() float64 {
	return float64(s.CompressNS+s.DecompressNS) / 1e9
}

// pageWords is the page as 8-byte little-endian words, the unit of the
// delta coding.
const pageWords = disk.PageSize / 8

// compressPage appends the delta+varint encoding of one page to dst: each
// 8-byte word is XORed with the word two back and the result written as a
// uvarint. The stride of two matches the x,y-interleaved vertex layout of
// object pages, so each coordinate deltas against the previous vertex's same
// axis: nearby vertices share sign, exponent and high mantissa bits, making
// the XOR small; zero padding (every partially filled page) collapses to one
// byte per word. Returns nil when the encoding would not shrink the page —
// the caller stores it raw.
func compressPage(dst, page []byte) []byte {
	base := len(dst)
	var prev [2]uint64
	for off := 0; off < disk.PageSize; off += 8 {
		lane := (off / 8) & 1
		w := binary.LittleEndian.Uint64(page[off:])
		dst = binary.AppendUvarint(dst, w^prev[lane])
		prev[lane] = w
		if len(dst)-base >= disk.PageSize {
			return nil
		}
	}
	return dst
}

// decompressPage decodes a compressPage encoding into page (PageSize bytes).
// Any malformed input — short stream, overlong stream, varint overflow —
// yields a descriptive error, never a panic.
func decompressPage(page, enc []byte) error {
	var prev [2]uint64
	off := 0
	for i := 0; i < pageWords; i++ {
		delta, n := binary.Uvarint(enc[off:])
		if n <= 0 {
			return fmt.Errorf("compressed page: word %d of %d: truncated or overflowing varint", i, pageWords)
		}
		if n > 1 && enc[off+n-1] == 0 {
			// The encoder emits minimal varints only; a zero continuation
			// tail is corruption, and rejecting it keeps decoding canonical.
			return fmt.Errorf("compressed page: word %d of %d: non-minimal varint", i, pageWords)
		}
		off += n
		prev[i&1] ^= delta
		binary.LittleEndian.PutUint64(page[i*8:], prev[i&1])
	}
	if off != len(enc) {
		return fmt.Errorf("compressed page: %d trailing bytes after %d words", len(enc)-off, pageWords)
	}
	return nil
}

// isZeroPage reports whether every byte of the (possibly short) page is zero.
func isZeroPage(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// slotOff returns the file offset of a page's slot.
func slotOff(id disk.PageID) int64 { return int64(id) * slotSize }

// checkSlotHeader validates a slot header's flag/length combination.
func checkSlotHeader(flag byte, ln uint16) error {
	switch flag {
	case flagZero:
		if ln != 0 {
			return fmt.Errorf("zero page with stored length %d", ln)
		}
	case flagRaw:
		if ln != disk.PageSize {
			return fmt.Errorf("raw page with stored length %d, want %d", ln, disk.PageSize)
		}
	case flagComp:
		if ln == 0 || ln >= disk.PageSize {
			return fmt.Errorf("compressed page with implausible stored length %d", ln)
		}
	default:
		return fmt.Errorf("unknown slot flag %d", flag)
	}
	return nil
}

// allocCompressed extends the file by n zero slots (flagZero headers are all
// zeros, so Truncate is the whole write).
func (b *FileBackend) allocCompressed(n int) disk.PageID {
	first := b.numPages.Load()
	if err := b.f.Truncate(slotOff(disk.PageID(first + int64(n)))); err != nil {
		panic(fmt.Sprintf("filebackend: extending %s: %v", b.f.Name(), err))
	}
	b.lens = append(b.lens, make([]uint16, n)...)
	b.numPages.Store(first + int64(n))
	return disk.PageID(first)
}

// freeCompressed stamps the freed slots back to zero pages: one 4-byte header
// write per slot, counted as one write call like the raw backend's zeroing.
func (b *FileBackend) freeCompressed(start disk.PageID, n int) {
	header := make([]byte, slotHeaderLen)
	for i := 0; i < n; i++ {
		b.writeAt(header, slotOff(start+disk.PageID(i)))
		b.lens[int(start)+i] = 0
	}
	b.writes.Add(1)
	b.pagesWritten.Add(int64(n))
}

// readRunCompressed transfers the run span in one positioned read (through
// the inter-slot slack) and decodes each slot out of it.
func (b *FileBackend) readRunCompressed(start disk.PageID, out [][]byte) {
	n := len(out)
	last := int(start) + n - 1
	span := slotOff(disk.PageID(last)) + slotHeaderLen + int64(b.lens[last]) - slotOff(start)
	buf := make([]byte, span)
	t0 := time.Now()
	if _, err := b.f.ReadAt(buf, slotOff(start)); err != nil && err != io.EOF {
		panic(fmt.Sprintf("filebackend: reading pages [%d,+%d) of %s: %v", start, n, b.f.Name(), err))
	}
	b.readNS.Add(time.Since(t0).Nanoseconds())
	b.reads.Add(1)
	b.pagesRead.Add(int64(n))

	pages := make([]byte, n*disk.PageSize)
	for i := range out {
		out[i] = pages[i*disk.PageSize : (i+1)*disk.PageSize]
		slot := buf[int64(i)*slotSize:]
		flag, ln := slot[0], binary.LittleEndian.Uint16(slot[1:])
		if err := checkSlotHeader(flag, ln); err != nil {
			panic(fmt.Sprintf("filebackend: %s page %d: %v", b.f.Name(), int(start)+i, err))
		}
		payload := slot[slotHeaderLen : slotHeaderLen+int(ln)]
		switch flag {
		case flagZero: // out[i] is already zero
		case flagRaw:
			copy(out[i], payload)
		case flagComp:
			t1 := time.Now()
			if err := decompressPage(out[i], payload); err != nil {
				panic(fmt.Sprintf("filebackend: %s page %d: %v", b.f.Name(), int(start)+i, err))
			}
			b.decompressNS.Add(time.Since(t1).Nanoseconds())
		}
	}
}

// writeRunCompressed encodes and writes each page's slot with one positioned
// write of exactly header+payload bytes — the slack is never transferred.
func (b *FileBackend) writeRunCompressed(start disk.PageID, data [][]byte) {
	slot := make([]byte, 0, slotSize)
	for i, pg := range data {
		id := start + disk.PageID(i)
		slot = slot[:slotHeaderLen]
		slot[0], slot[1], slot[2], slot[3] = 0, 0, 0, 0
		switch {
		case isZeroPage(pg):
			b.pagesZero.Add(1)
		default:
			full := pg
			if len(full) < disk.PageSize {
				full = make([]byte, disk.PageSize)
				copy(full, pg)
			}
			t0 := time.Now()
			enc := compressPage(slot, full)
			b.compressNS.Add(time.Since(t0).Nanoseconds())
			if enc == nil {
				slot = append(slot[:slotHeaderLen], full...)
				slot[0] = flagRaw
				b.pagesRaw.Add(1)
			} else {
				slot = enc
				slot[0] = flagComp
				b.pagesComp.Add(1)
			}
			binary.LittleEndian.PutUint16(slot[1:], uint16(len(slot)-slotHeaderLen))
		}
		b.writeAt(slot, slotOff(id))
		b.lens[id] = uint16(len(slot) - slotHeaderLen)
		b.rawBytes.Add(disk.PageSize)
		b.storedBytes.Add(int64(len(slot)))
	}
	b.writes.Add(1)
	b.pagesWritten.Add(int64(len(data)))
}

// CompStats reports the compression counters (all zero when the backend was
// opened without Config.Compress). Safe to call concurrently.
func (b *FileBackend) CompStats() CompStats {
	return CompStats{
		PagesZero:    b.pagesZero.Load(),
		PagesRaw:     b.pagesRaw.Load(),
		PagesComp:    b.pagesComp.Load(),
		RawBytes:     b.rawBytes.Load(),
		StoredBytes:  b.storedBytes.Load(),
		CompressNS:   b.compressNS.Load(),
		DecompressNS: b.decompressNS.Load(),
	}
}
