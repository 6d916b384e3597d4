package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"nbhd/internal/backend"
	"nbhd/internal/render"
)

// frame is a resolved frame reference (resolveFrame): the frame part of
// its cache key, and what answers it on a cache miss.
type frame struct {
	key  string
	item backend.Item
	// raw holds a raw-f32 upload as uploadKey hashed it, in a pooled
	// buffer that release returns; its image is built only by load.
	// Nil for every other frame, whose item carries its image.
	raw *[]byte
}

// load returns the frame's backend item. A raw-f32 upload's image is
// built here, on a miss, from the canonical bytes its key hashed, and
// owns its pixels: nothing the coalescer holds aliases the pooled
// buffer.
func (fr *frame) load() (backend.Item, error) {
	if fr.raw == nil {
		return fr.item, nil
	}
	b := *fr.raw
	w, h := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	img, err := render.DecodeRawF32(int(w), int(h), b[8:])
	if err != nil {
		return backend.Item{}, err
	}
	item := fr.item
	item.Image = img
	return item, nil
}

// release returns a raw-f32 upload's buffer to the pool, unless it
// grew past 1 MiB.
func (fr *frame) release() {
	if fr.raw != nil && cap(*fr.raw) <= 1<<20 {
		frameBufs.Put(fr.raw)
	}
}

// frameBufs recycles the buffers raw-f32 uploads decode into.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// rawUpload decodes a base64 raw-f32 upload of w×h pixels into a pooled
// buffer, behind its size header and canonicalised as
// render.DecodeRawF32 stores it, and keys the frame by those bytes. A
// cache hit then costs one base64 decode and one SHA-256, and never
// builds the image.
func rawUpload(b64 []byte, w, h, maxBytes int) (frame, error) {
	fr := frame{item: backend.Item{ID: "upload"}, raw: frameBufs.Get().(*[]byte)}
	raw, err := render.AppendRawF32Base64(appendHeader((*fr.raw)[:0], w, h), b64, w, h, maxBytes)
	*fr.raw = raw
	if err != nil {
		fr.release()
		return frame{}, err
	}
	fr.key = uploadKey(raw)
	return fr, nil
}

// appendHeader appends the size header uploadKey hashes ahead of an
// image's pixels: width and height as little-endian uint32s.
func appendHeader(dst []byte, w, h int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	return binary.LittleEndian.AppendUint32(dst, uint32(h))
}

// uploadKey is an uploaded image's frame key: "img:" and the hex
// SHA-256 of its size header (appendHeader) followed by its pixels as
// render.Image.EncodeRawF32 writes them. Raw-f32 and PNG uploads of the
// same pixels share the key. The hash is the sole identity of an
// untrusted payload — a shared cache entry and collapsed inference hang
// off it — so it must be collision-resistant, not merely
// well-distributed.
func uploadKey(frame []byte) string {
	const prefix = "img:"
	sum := sha256.Sum256(frame)
	var key [len(prefix) + 2*sha256.Size]byte
	copy(key[:], prefix)
	hex.Encode(key[len(prefix):], sum[:])
	return string(key[:])
}
