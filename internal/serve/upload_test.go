package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"nbhd/internal/render"
)

// pixelHash is the reference upload key: SHA-256 over the dimensions
// and the exact float32 bit patterns of a decoded image, re-encoded
// from its pixels. rawUpload must reach the same key from the upload's
// bytes without building the image.
func pixelHash(img *render.Image) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(img.W))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(img.H))
	for _, px := range img.Pix {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(px))
		if len(buf) >= 4092 {
			_, _ = h.Write(buf)
			buf = buf[:0]
		}
	}
	_, _ = h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// referenceUpload decodes a raw-f32 upload the long way: the whole
// payload into a fresh buffer, then render.DecodeRawF32, with the
// gateway's error messages.
func referenceUpload(b64 string, w, h, maxBytes int) (*render.Image, error) {
	if base64.StdEncoding.DecodedLen(len(b64)) > maxBytes {
		return nil, fmt.Errorf("image payload %w of %d bytes", render.ErrTooLarge, maxBytes)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("image is not valid base64: %v", err)
	}
	img, err := render.DecodeRawF32(w, h, raw)
	if err != nil {
		return nil, fmt.Errorf("image is not a valid raw f32 buffer: %v", err)
	}
	return img, nil
}

// FuzzUploadKey holds the gateway's raw-f32 upload key to its
// reference: for any payload (base64-encoded or taken as the literal),
// size and cap, rawUpload keys the frame "img:"+pixelHash of the image
// render.DecodeRawF32 builds from the decoded payload, and the image
// load builds on a miss is that image bit for bit — or both fail with
// the same message. Seeds under testdata/fuzz/FuzzUploadKey cover NaN,
// ±Inf, −0 and out-of-range values, bad base64, wrong lengths, a
// non-positive size and an over-cap payload.
func FuzzUploadKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, encode bool, w, h int, maxBytes uint16) {
		b64 := string(payload)
		if encode {
			b64 = base64.StdEncoding.EncodeToString(payload)
		}
		want, wantErr := referenceUpload(b64, w, h, int(maxBytes))
		fr, err := rawUpload([]byte(b64), w, h, int(maxBytes))
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() ||
				errors.Is(err, render.ErrTooLarge) != errors.Is(wantErr, render.ErrTooLarge) {
				t.Fatalf("rawUpload error %v, reference %v", err, wantErr)
			}
			return
		}
		defer fr.release()
		if wantKey := "img:" + pixelHash(want); fr.key != wantKey {
			t.Fatalf("key %s, reference %s", fr.key, wantKey)
		}
		item, err := fr.load()
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if item.ID != "upload" || item.Image.W != want.W || item.Image.H != want.H ||
			!bytes.Equal(item.Image.EncodeRawF32(), want.EncodeRawF32()) {
			t.Fatalf("load built %q %dx%d, reference %dx%d with other pixels", item.ID, item.Image.W, item.Image.H, want.W, want.H)
		}
	})
}

// TestUploadKeyDiscriminates: equal pixels share a key, across upload
// encodings too, and a changed pixel or a reshaped image does not.
func TestUploadKeyDiscriminates(t *testing.T) {
	key := func(img *render.Image) string {
		t.Helper()
		fr, err := rawUpload([]byte(base64.StdEncoding.EncodeToString(img.EncodeRawF32())), img.W, img.H, 1<<20)
		if err != nil {
			t.Fatalf("rawUpload: %v", err)
		}
		fr.release()
		return fr.key
	}
	a := render.MustNewImage(4, 4)
	b := render.MustNewImage(4, 4)
	if key(a) != key(b) {
		t.Fatalf("identical images key differently")
	}
	b.Set(1, 1, 0, 0.5)
	if key(a) == key(b) {
		t.Fatalf("distinct images collide")
	}
	c := render.MustNewImage(2, 8) // same pixel count, different shape
	if key(a) == key(c) {
		t.Fatalf("different dimensions collide")
	}
	var png bytes.Buffer
	if err := b.EncodePNG(&png); err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{}.withDefaults()}
	fr, herr := s.resolveFrame(nil, &FrameRef{ImagePNGBase64: base64.StdEncoding.EncodeToString(png.Bytes())})
	if herr != nil {
		t.Fatalf("resolveFrame: %+v", herr)
	}
	if fr.key != key(fr.item.Image) || fr.key != "img:"+pixelHash(fr.item.Image) {
		t.Fatalf("a PNG upload keys %s, its pixels as raw f32 %s", fr.key, key(fr.item.Image))
	}
}
