package render

import (
	"bytes"
	"encoding/base64"
	"errors"
	"image/png"
	"math"
	"strconv"
	"testing"
)

// FuzzDecodeUpload holds the two upload decoders to the guarantees the
// gateway and llmserve rely on, for any payload (base64-encoded or
// taken as the literal), size and cap: neither panics; a payload over
// the cap, or a PNG canvas whose pixel buffer would be, fails wrapping
// ErrTooLarge; and an accepted image has every pixel in [0,1]. The
// raw-f32 path is AppendRawF32Base64 then DecodeRawF32, whose image
// must re-encode to the canonical bytes the first step wrote. Seeds
// under testdata/fuzz/FuzzDecodeUpload cover NaN, ±Inf and −0 values,
// wrong lengths, bad base64, a valid PNG, a truncated one and one
// whose header declares a huge canvas.
func FuzzDecodeUpload(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, encode bool, w, h int, maxBytes uint16) {
		b64 := string(payload)
		if encode {
			b64 = base64.StdEncoding.EncodeToString(payload)
		}
		overCap := base64.StdEncoding.DecodedLen(len(b64)) > int(maxBytes)

		raw, err := AppendRawF32Base64([]byte("hdr"), []byte(b64), w, h, int(maxBytes))
		switch {
		case overCap != errors.Is(err, ErrTooLarge):
			t.Fatalf("raw f32: payload over the cap %v, error %v", overCap, err)
		case err != nil:
			if string(raw) != "hdr" {
				t.Fatalf("raw f32 failed (%v) but changed dst to %q", err, raw)
			}
		default:
			img, err := DecodeRawF32(w, h, raw[3:])
			if err != nil {
				t.Fatalf("raw f32: accepted payload does not decode: %v", err)
			}
			checkPixels(t, img)
			if !bytes.Equal(img.EncodeRawF32(), raw[3:]) {
				t.Fatal("raw f32: bytes are not the decoded image's encoding")
			}
		}

		img, err := DecodeBase64PNG(b64, int(maxBytes))
		if overCap && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("png: payload over the cap, error %v", err)
		}
		if dec, derr := base64.StdEncoding.DecodeString(b64); !overCap && derr == nil {
			if cfg, cerr := png.DecodeConfig(bytes.NewReader(dec)); cerr == nil &&
				int64(cfg.Width)*int64(cfg.Height)*Channels*4 > int64(maxBytes) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("png: %dx%d canvas over the cap, error %v", cfg.Width, cfg.Height, err)
			}
		}
		if err == nil {
			if int64(img.W)*int64(img.H)*Channels*4 > int64(maxBytes) {
				t.Fatalf("png: accepted a %dx%d image over the cap of %d bytes", img.W, img.H, maxBytes)
			}
			checkPixels(t, img)
		}
	})
}

// checkPixels fails unless the image's buffer matches its size and
// every pixel is in [0,1].
func checkPixels(t *testing.T, img *Image) {
	t.Helper()
	if len(img.Pix) != Channels*img.W*img.H {
		t.Fatalf("%dx%d image has %d pixels", img.W, img.H, len(img.Pix))
	}
	for i, v := range img.Pix {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("pixel %d is %v", i, v)
		}
	}
}

// TestDecodeRawF32RejectsWrappingSizes: a size whose byte count wraps
// int64 to the payload's length is rejected, not allocated.
func TestDecodeRawF32RejectsWrappingSizes(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("sizes this large need a 64-bit int")
	}
	// 12 × (2^62 + 1) wraps to 12, one pixel's bytes.
	w64 := int64(math.MaxInt64/2 + 2)
	w := int(w64)
	if _, err := DecodeRawF32(w, 1, make([]byte, 12)); err == nil {
		t.Fatalf("DecodeRawF32(%d, 1, 12 bytes) accepted", w)
	}
	b64 := []byte(base64.StdEncoding.EncodeToString(make([]byte, 12)))
	if _, err := AppendRawF32Base64(nil, b64, w, 1, 1<<20); err == nil {
		t.Fatalf("AppendRawF32Base64 accepted a %dx1 upload of 12 bytes", w)
	}
}
