// Package store is the persistent frame corpus: a memory-mapped,
// content-addressed store of rendered frames that turns the render
// cache's "render once per process" into "render once, serve forever".
//
// Frames are addressed by a 32-byte content hash of what determines
// their pixels — sample coordinate, heading, render resolution, scene
// seed (see FrameKey) — so any process that rebuilds the same study
// finds the same keys, and a corpus rendered on one machine serves on
// another. Records live in append-only segment files, each a
// self-describing log of CRC-protected records, with an advisory index
// file that accelerates reopening; the segments alone are authoritative
// and the index is rebuilt whenever it is missing, stale, or corrupt.
// The on-disk layout is specified in docs/STORE_FORMAT.md (format
// version 1, asserted by the format tests); any layout change must
// follow that document's versioning rules.
//
// Readers memory-map the segments, so a warm start serves pixels
// straight from the OS page cache with zero re-renders, and N reader
// processes of one store share a single physical copy. Concurrency
// follows the single-writer / many-reader discipline: writers take an
// exclusive advisory lock on LOCK, readers never lock and see the store
// as of the moment they opened it. Within a process a Store is safe for
// concurrent use.
//
// Durability is tuned for a render cache, not a database: Put appends
// without fsync (a crash can lose recent frames — they are
// deterministically re-renderable), and open detects a torn tail by
// structural validation plus CRC, truncating the junk instead of
// serving it. Every payload is CRC-checked again on Get before it is
// decoded.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"nbhd/internal/lockfile"
	"nbhd/internal/render"
)

// DefaultMaxSegmentBytes is the segment rotation threshold: an active
// segment past this size is sealed and a new one started. 256 MiB keeps
// individual mappings and recovery scans bounded while holding ~2,400
// frames at the 96×96 LLM resolution per segment.
const DefaultMaxSegmentBytes = 256 << 20

// Options tunes Open.
type Options struct {
	// ReadOnly opens without the writer lock; Put fails. A missing
	// directory is an error in read-only mode (a writer would create it).
	ReadOnly bool
	// MaxSegmentBytes overrides the segment rotation threshold; zero
	// uses DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
}

// entryLoc locates one record: segment ordinal plus byte offset of its
// header within the segment file.
type entryLoc struct {
	seg int
	off int64
}

// segment is one open segment file: the file handle, its read-only
// mapping (covering the size at open), and its current validated size.
type segment struct {
	f      *os.File
	mapped []byte
	size   int64
}

// Store is an open frame store. Obtain one with Open; it is safe for
// concurrent use within a process.
type Store struct {
	dir      string
	readOnly bool
	maxSeg   int64

	mu           sync.RWMutex
	index        map[Key]entryLoc
	order        []Key
	segs         []*segment
	lock         *lockfile.Lock
	payloadBytes int64
	dirty        bool // records appended since the index file was written
	closed       bool
}

// Open opens (or, for writers, creates) the store in dir. The segments
// are validated structurally on open — a torn tail from a crashed
// writer is detected, truncated (writers) or ignored (readers), and
// never served.
func Open(dir string, opts Options) (*Store, error) {
	maxSeg := opts.MaxSegmentBytes
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegmentBytes
	}
	s := &Store{
		dir:      dir,
		readOnly: opts.ReadOnly,
		maxSeg:   maxSeg,
		index:    make(map[Key]entryLoc),
	}
	if opts.ReadOnly {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: open read-only: %w", err)
		}
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", dir, err)
		}
		lock, err := lockfile.Acquire(filepath.Join(dir, lockFileName))
		if err != nil {
			return nil, fmt.Errorf("store: %s is locked by another writer: %w", dir, err)
		}
		s.lock = lock
	}
	if err := s.openSegments(); err != nil {
		s.release()
		return nil, err
	}
	if len(s.segs) == 0 && !s.readOnly {
		if err := s.addSegment(); err != nil {
			s.release()
			return nil, err
		}
	}
	if err := s.loadIndex(); err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

// openSegments opens every seg-*.nbs in order and validates headers.
func (s *Store) openSegments() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.nbs"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for i, name := range names {
		if want := segmentName(i); filepath.Base(name) != want {
			return fmt.Errorf("store: segment files not contiguous: found %s, want %s", filepath.Base(name), want)
		}
		flag := os.O_RDONLY
		if !s.readOnly {
			flag = os.O_RDWR
		}
		f, err := os.OpenFile(name, flag, 0)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("store: %w", err)
		}
		m, err := mmapFile(f, fi.Size())
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("store: map %s: %w", name, err)
		}
		if err := checkSegHeader(m); err != nil {
			_ = munmap(m)
			_ = f.Close()
			return fmt.Errorf("store: %s: %w", filepath.Base(name), err)
		}
		s.segs = append(s.segs, &segment{f: f, mapped: m, size: fi.Size()})
	}
	return nil
}

// addSegment creates and opens the next segment file.
func (s *Store) addSegment() error {
	name := filepath.Join(s.dir, segmentName(len(s.segs)))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write(encodeSegHeader()); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: write segment header: %w", err)
	}
	s.segs = append(s.segs, &segment{f: f, size: segHeaderSize})
	return nil
}

// loadIndex populates the key index: from the index file when it is
// present and consistent, then by scanning whatever each segment holds
// beyond the indexed region (records appended after the index was last
// written, or everything after a rebuild). Scanning stops at the first
// structurally invalid or CRC-failing record — the torn tail — which
// writers truncate away.
func (s *Store) loadIndex() error {
	covered := s.readIndexFile()
	for si, seg := range s.segs {
		from := int64(segHeaderSize)
		if si < len(covered) {
			from = covered[si]
		}
		valid, err := s.scanSegment(si, from)
		if err != nil {
			return err
		}
		if valid < seg.size {
			if s.readOnly {
				seg.size = valid
			} else {
				if err := seg.f.Truncate(valid); err != nil {
					return fmt.Errorf("store: truncate torn tail of %s: %w", segmentName(si), err)
				}
				seg.size = valid
				s.dirty = true
			}
		}
	}
	return nil
}

// scanSegment walks records in segment si from offset from, CRC-checking
// each and indexing the valid ones. It returns the end offset of the
// last valid record.
func (s *Store) scanSegment(si int, from int64) (int64, error) {
	seg := s.segs[si]
	off := from
	if off < segHeaderSize {
		off = segHeaderSize
	}
	for off+recHeaderSize <= seg.size {
		hdrBytes, err := s.recordBytes(si, off, recHeaderSize)
		if err != nil {
			return 0, err
		}
		h := decodeRecHeader(hdrBytes)
		if !h.validShape() {
			break
		}
		end := off + recHeaderSize + int64(h.payloadLen)
		if end > seg.size {
			break
		}
		payload, err := s.recordBytes(si, off+recHeaderSize, int64(h.payloadLen))
		if err != nil {
			return 0, err
		}
		if crc32.Checksum(payload, crcTable) != h.crc {
			break
		}
		s.addEntry(h.key, entryLoc{seg: si, off: off}, int64(h.payloadLen))
		off = end
	}
	return off, nil
}

// addEntry records a key, keeping the first occurrence (content
// addressing: duplicates carry identical payloads).
func (s *Store) addEntry(k Key, loc entryLoc, payloadLen int64) {
	if _, dup := s.index[k]; dup {
		return
	}
	s.index[k] = loc
	s.order = append(s.order, k)
	s.payloadBytes += payloadLen
}

// recordBytes returns length bytes at off in segment si, from the
// mapping when covered, via pread for bytes appended after the mapping
// was made.
func (s *Store) recordBytes(si int, off, length int64) ([]byte, error) {
	seg := s.segs[si]
	if off+length <= int64(len(seg.mapped)) {
		return seg.mapped[off : off+length], nil
	}
	buf := make([]byte, length)
	if _, err := seg.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: read %s@%d: %w", segmentName(si), off, err)
	}
	return buf, nil
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Get returns the stored frame for the key, or ok=false when absent.
// The payload is CRC-verified before decoding; the returned image is a
// fresh copy, valid past Close.
func (s *Store) Get(k Key) (*render.Image, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, fmt.Errorf("store: closed")
	}
	loc, ok := s.index[k]
	if !ok {
		return nil, false, nil
	}
	hdrBytes, err := s.recordBytes(loc.seg, loc.off, recHeaderSize)
	if err != nil {
		return nil, false, err
	}
	h := decodeRecHeader(hdrBytes)
	payload, err := s.recordBytes(loc.seg, loc.off+recHeaderSize, int64(h.payloadLen))
	if err != nil {
		return nil, false, err
	}
	if crc32.Checksum(payload, crcTable) != h.crc {
		return nil, false, fmt.Errorf("store: record %s fails CRC (corrupt segment %s)", k, segmentName(loc.seg))
	}
	img, err := render.DecodeRawF32(int(h.width), int(h.height), payload)
	if err != nil {
		return nil, false, fmt.Errorf("store: decode record %s: %w", k, err)
	}
	return img, true, nil
}

// Put appends the frame under the key. Existing keys are no-ops
// (content addressing makes Put idempotent). The append is buffered by
// the OS until Sync or Close; a crash before then loses only
// re-renderable frames, never previously synced ones.
func (s *Store) Put(k Key, img *render.Image) error {
	if img == nil || img.W <= 0 || img.H <= 0 {
		return fmt.Errorf("store: Put of nil or empty image")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.readOnly {
		return fmt.Errorf("store: Put on read-only store")
	}
	if _, dup := s.index[k]; dup {
		return nil
	}
	payload := img.EncodeRawF32()
	active := len(s.segs) - 1
	if s.segs[active].size+recHeaderSize+int64(len(payload)) > s.maxSeg && s.segs[active].size > segHeaderSize {
		if err := s.addSegment(); err != nil {
			return err
		}
		active = len(s.segs) - 1
	}
	seg := s.segs[active]
	h := recHeader{
		key:        k,
		kind:       KindFrameRawF32,
		width:      uint32(img.W),
		height:     uint32(img.H),
		payloadLen: uint32(len(payload)),
		crc:        crc32.Checksum(payload, crcTable),
	}
	// One contiguous write: a crash leaves either a whole record or a
	// short tail that recovery truncates, never an indexed half-record.
	buf := make([]byte, recHeaderSize+len(payload))
	h.encode(buf)
	copy(buf[recHeaderSize:], payload)
	if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
		return fmt.Errorf("store: append record: %w", err)
	}
	s.addEntry(k, entryLoc{seg: active, off: seg.size}, int64(len(payload)))
	seg.size += int64(len(buf))
	s.dirty = true
	return nil
}

// Sync flushes the active segment to stable storage and rewrites the
// index file (atomically, via rename).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.readOnly || s.closed || !s.dirty {
		return nil
	}
	if err := s.segs[len(s.segs)-1].f.Sync(); err != nil {
		return fmt.Errorf("store: sync segment: %w", err)
	}
	if err := s.writeIndexFile(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Close syncs (writers), unmaps every segment, and releases the writer
// lock. Images previously returned by Get remain valid.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked()
	s.closed = true
	s.release()
	return err
}

// release tears down OS resources (idempotent, callers hold mu or own s
// exclusively during a failed Open).
func (s *Store) release() {
	for _, seg := range s.segs {
		if seg.mapped != nil {
			_ = munmap(seg.mapped)
			seg.mapped = nil
		}
		if seg.f != nil {
			_ = seg.f.Close()
			seg.f = nil
		}
	}
	if s.lock != nil {
		_ = s.lock.Release()
		s.lock = nil
	}
}

// Stats describes the store's on-disk footprint — the inputs to the
// bytes-per-record budget assertion.
type Stats struct {
	// Records is the number of stored frames.
	Records int
	// Segments is the number of segment files.
	Segments int
	// SegmentBytes is the summed size of all segment files.
	SegmentBytes int64
	// PayloadBytes is the summed raw pixel payload size.
	PayloadBytes int64
	// IndexBytes is the index file's size as last written (0 before the
	// first Sync).
	IndexBytes int64
}

// Stats snapshots the footprint counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Records:      len(s.index),
		Segments:     len(s.segs),
		PayloadBytes: s.payloadBytes,
	}
	for _, seg := range s.segs {
		st.SegmentBytes += seg.size
	}
	if fi, err := os.Stat(filepath.Join(s.dir, indexFileName)); err == nil {
		st.IndexBytes = fi.Size()
	}
	return st
}

// --- index file ---

// idxHeaderSize: magic (8) + version uint32 + segment count uint32,
// then per-segment covered size uint64 each, then entries, then a
// trailing CRC-32C uint32 over everything before it.
const idxFixedHeader = 8 + 4 + 4

// writeIndexFile persists the advisory index beside the segments.
func (s *Store) writeIndexFile() error {
	n := len(s.order)
	buf := make([]byte, idxFixedHeader+8*len(s.segs)+idxEntrySize*n+4)
	copy(buf, idxMagic)
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(s.segs)))
	off := idxFixedHeader
	for _, seg := range s.segs {
		binary.LittleEndian.PutUint64(buf[off:], uint64(seg.size))
		off += 8
	}
	for _, k := range s.order {
		loc := s.index[k]
		copy(buf[off:], k[:])
		binary.LittleEndian.PutUint32(buf[off+32:], uint32(loc.seg))
		binary.LittleEndian.PutUint64(buf[off+36:], uint64(loc.off))
		off += idxEntrySize
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(buf[:off], crcTable))
	tmp := filepath.Join(s.dir, indexFileName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, indexFileName)); err != nil {
		return fmt.Errorf("store: replace index: %w", err)
	}
	return nil
}

// readIndexFile loads the advisory index if present and trustworthy,
// returning the per-segment byte ranges it covers (nil means "scan
// everything"). Every failure mode — missing file, bad magic or
// version, CRC mismatch, truncation, entries past a segment's current
// size — degrades to a rebuild scan, never an error: the segments are
// authoritative.
func (s *Store) readIndexFile() []int64 {
	buf, err := os.ReadFile(filepath.Join(s.dir, indexFileName))
	if err != nil || len(buf) < idxFixedHeader+4 {
		return nil
	}
	if string(buf[:8]) != idxMagic || binary.LittleEndian.Uint32(buf[8:]) != FormatVersion {
		return nil
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil
	}
	segCount := int(binary.LittleEndian.Uint32(buf[12:]))
	if segCount > len(s.segs) || len(body) < idxFixedHeader+8*segCount {
		return nil
	}
	covered := make([]int64, segCount)
	off := idxFixedHeader
	for i := 0; i < segCount; i++ {
		covered[i] = int64(binary.LittleEndian.Uint64(body[off:]))
		off += 8
		if covered[i] < segHeaderSize || covered[i] > s.segs[i].size {
			return nil
		}
	}
	if (len(body)-off)%idxEntrySize != 0 {
		return nil
	}
	type pending struct {
		k   Key
		loc entryLoc
	}
	var ents []pending
	for ; off+idxEntrySize <= len(body); off += idxEntrySize {
		var k Key
		copy(k[:], body[off:])
		loc := entryLoc{
			seg: int(binary.LittleEndian.Uint32(body[off+32:])),
			off: int64(binary.LittleEndian.Uint64(body[off+36:])),
		}
		if loc.seg >= segCount || loc.off < segHeaderSize || loc.off+recHeaderSize > covered[loc.seg] {
			return nil
		}
		ents = append(ents, pending{k: k, loc: loc})
	}
	// Commit only after the whole file validated.
	for _, e := range ents {
		hdrBytes, err := s.recordBytes(e.loc.seg, e.loc.off, recHeaderSize)
		if err != nil {
			s.index = make(map[Key]entryLoc)
			s.order = nil
			s.payloadBytes = 0
			return nil
		}
		h := decodeRecHeader(hdrBytes)
		if !h.validShape() || h.key != e.k || e.loc.off+recHeaderSize+int64(h.payloadLen) > covered[e.loc.seg] {
			s.index = make(map[Key]entryLoc)
			s.order = nil
			s.payloadBytes = 0
			return nil
		}
		s.addEntry(e.k, e.loc, int64(h.payloadLen))
	}
	return covered
}

// segmentPath is exposed for the crash-safety tests, which corrupt
// segment tails directly.
func segmentPath(dir string, n int) string { return filepath.Join(dir, segmentName(n)) }

// indexPath is exposed for tests that corrupt or delete the index file.
func indexPath(dir string) string { return filepath.Join(dir, indexFileName) }
