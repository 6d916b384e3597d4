package store

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"nbhd/internal/geo"
	"nbhd/internal/render"
)

// testImage renders a deterministic pseudo-random frame so payloads are
// realistic (non-constant) without dragging the scene generator in.
func testImage(t *testing.T, size int, seed int64) *render.Image {
	t.Helper()
	img, err := render.NewImage(size, size)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = rng.Float32()
	}
	return img
}

func testKey(i int) Key {
	return FrameKey(geo.Coordinate{Lat: 35 + float64(i)*1e-4, Lng: -79}, geo.HeadingNorth, 32, int64(i))
}

func samePixels(a, b *render.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	imgs := make(map[int]*render.Image)
	for i := 0; i < 10; i++ {
		imgs[i] = testImage(t, 16+i, int64(i))
		if err := s.Put(testKey(i), imgs[i]); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok, err := s.Get(testKey(i))
		if err != nil || !ok {
			t.Fatalf("Get %d: ok=%v err=%v", i, ok, err)
		}
		if !samePixels(got, imgs[i]) {
			t.Fatalf("record %d pixels differ after round trip", i)
		}
	}
	if _, ok, err := s.Get(testKey(99)); ok || err != nil {
		t.Fatalf("Get of absent key: ok=%v err=%v, want false,nil", ok, err)
	}
}

func TestReopenServesWithoutIndexFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testImage(t, 24, 5)
	if err := s.Put(testKey(1), want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The index file is advisory: delete it and the segments alone must
	// rebuild the store.
	if err := os.Remove(indexPath(dir)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Get(testKey(1))
	if err != nil || !ok {
		t.Fatalf("Get after index rebuild: ok=%v err=%v", ok, err)
	}
	if !samePixels(got, want) {
		t.Fatal("pixels differ after index rebuild")
	}
}

func TestCorruptIndexFileTriggersRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), testImage(t, 16, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the index body; the CRC must catch it and force a
	// segment scan that still finds everything.
	buf, err := os.ReadFile(indexPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(indexPath(dir), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("Len after corrupt-index rebuild = %d, want 5", s2.Len())
	}
}

func TestPutIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	img := testImage(t, 16, 1)
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(7), img); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len after duplicate Puts = %d, want 1", s.Len())
	}
	st := s.Stats()
	if want := int64(len(img.EncodeRawF32())); st.PayloadBytes != want {
		t.Fatalf("PayloadBytes = %d, want %d (duplicates must not append)", st.PayloadBytes, want)
	}
}

func TestReadOnlyStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), testImage(t, 16, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Put(testKey(1), testImage(t, 16, 1)); err == nil {
		t.Fatal("Put on read-only store succeeded")
	}
	if _, ok, err := ro.Get(testKey(0)); !ok || err != nil {
		t.Fatalf("read-only Get: ok=%v err=%v", ok, err)
	}
	if _, err := Open("/nonexistent/nbhd-store", Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only Open of a missing directory succeeded")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// A segment cap small enough that 8 records of 16x16x3x4 = 3072B
	// payloads must rotate several times.
	s, err := Open(dir, Options{MaxSegmentBytes: 2 * (recHeaderSize + 3072)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(testKey(i), testImage(t, 16, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d, want rotation to >= 3", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 8 {
		t.Fatalf("Len after multi-segment reopen = %d, want 8", s2.Len())
	}
	for i := 0; i < 8; i++ {
		if _, ok, err := s2.Get(testKey(i)); !ok || err != nil {
			t.Fatalf("Get %d across segments: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if err := s.Put(testKey(i), testImage(t, 8, int64(i))); err != nil {
					t.Errorf("Put %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, _, err := s.Get(testKey(i)); err != nil {
					t.Errorf("Get %d: %v", i, err)
					return
				}
				s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
}

func TestSecondWriterIsLockedOut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second concurrent writer acquired the store")
	}
	// Readers are never locked out.
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("concurrent reader: %v", err)
	}
	_ = ro.Close()
}

func TestFrameKeyIsContentAddressed(t *testing.T) {
	c := geo.Coordinate{Lat: 35.1, Lng: -79.2}
	base := FrameKey(c, geo.HeadingNorth, 96, 7)
	if base != FrameKey(c, geo.HeadingNorth, 96, 7) {
		t.Fatal("identical inputs produced different keys")
	}
	variants := []Key{
		FrameKey(geo.Coordinate{Lat: 35.1000001, Lng: -79.2}, geo.HeadingNorth, 96, 7),
		FrameKey(c, geo.HeadingEast, 96, 7),
		FrameKey(c, geo.HeadingNorth, 64, 7),
		FrameKey(c, geo.HeadingNorth, 96, 8),
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d (coordinate/heading/resolution/seed change) did not change the key", i)
		}
	}
}

func TestClosedStoreErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), testImage(t, 8, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, _, err := s.Get(testKey(0)); err == nil {
		t.Fatal("Get on closed store succeeded")
	}
	if err := s.Put(testKey(1), testImage(t, 8, 1)); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
}

func TestOpenRejectsFutureFormatVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(segmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	buf[8] = FormatVersion + 1 // bump the little-endian version field
	if err := os.WriteFile(segmentPath(dir, 0), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{ReadOnly: true}); err == nil {
		t.Fatal("Open accepted a segment with a future format version")
	}
}

func TestStatsAccounting(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var payload int64
	for i := 0; i < 4; i++ {
		img := testImage(t, 16, int64(i))
		payload += int64(len(img.EncodeRawF32()))
		if err := s.Put(testKey(i), img); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Records != 4 || st.PayloadBytes != payload {
		t.Fatalf("Stats = %+v, want 4 records / %d payload bytes", st, payload)
	}
	wantSeg := int64(segHeaderSize) + 4*(recHeaderSize+payload/4)
	if st.SegmentBytes != wantSeg {
		t.Fatalf("SegmentBytes = %d, want exactly %d (header + 4 records)", st.SegmentBytes, wantSeg)
	}
}

func TestManyRecordsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), testImage(t, 8, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("Len = %d, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := testImage(t, 8, int64(i))
		got, ok, err := s2.Get(testKey(i))
		if !ok || err != nil {
			t.Fatalf("Get %d: ok=%v err=%v", i, ok, err)
		}
		if !samePixels(got, want) {
			t.Fatalf("record %d pixels differ after reopen", i)
		}
	}
}

func TestWriterAppendsAfterReaderOpened(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Put(testKey(0), testImage(t, 8, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The reader sees the store as of open; later appends by the writer
	// appear after a reopen, not spontaneously.
	if err := w.Put(testKey(1), testImage(t, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("reader Len = %d, want the 1 record synced before open", r.Len())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 2 {
		t.Fatalf("reopened reader Len = %d, want 2", r2.Len())
	}
}

func TestGetDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), testImage(t, 16, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in place (not the tail — a mid-payload flip
	// only the per-Get CRC can catch once the record is indexed).
	f, err := os.OpenFile(segmentPath(dir, 0), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, segHeaderSize+recHeaderSize+100); err != nil {
		t.Fatal(err)
	}
	// Re-corrupt so the complement also differs from the original byte.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove the index so open rescans — the scan CRC rejects the
	// record, so the corrupt frame is never served at all.
	if err := os.Remove(indexPath(dir)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("Len = %d, want 0 (corrupt record must not be indexed)", s2.Len())
	}
}

func TestOpenErrsOnNonContiguousSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(segmentPath(dir, 0), segmentPath(dir, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{ReadOnly: true}); err == nil {
		t.Fatal("Open accepted a gap in segment numbering")
	}
}

func TestHugeKeySpaceNoCollisions(t *testing.T) {
	seen := make(map[Key]string)
	for i := 0; i < 1000; i++ {
		c := geo.Coordinate{Lat: float64(i) * 1e-3, Lng: -79}
		for _, h := range geo.CardinalHeadings() {
			k := FrameKey(c, h, 96, 0)
			id := fmt.Sprintf("%d/%d", i, h)
			if prev, dup := seen[k]; dup {
				t.Fatalf("key collision between %s and %s", prev, id)
			}
			seen[k] = id
		}
	}
}
