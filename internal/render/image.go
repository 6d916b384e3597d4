// Package render rasterizes ground-truth scenes into RGB images — the
// synthetic stand-in for Google Street View photography. Images are stored
// channel-major as float32 in [0,1] so the detector's tensor pipeline can
// consume them directly; conversions to and from the stdlib image types
// (for PNG transport through the street-view API server) are provided.
package render

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"
	"slices"

	"nbhd/internal/randsrc"
)

// Channels is the number of color channels in a rendered image.
const Channels = 3

// Image is an RGB raster stored channel-major (CHW): Pix[c*W*H + y*W + x].
// Values are float32 in [0,1]; operations clamp on write.
type Image struct {
	W, H int
	Pix  []float32
}

// NewImage allocates a black image of the given size.
func NewImage(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("render: image size must be positive, got %dx%d", w, h)
	}
	return &Image{W: w, H: h, Pix: make([]float32, Channels*w*h)}, nil
}

// MustNewImage is NewImage for sizes known to be valid at compile time;
// it panics on error and exists for tests and internal callers.
func MustNewImage(w, h int) *Image {
	img, err := NewImage(w, h)
	if err != nil {
		panic(err)
	}
	return img
}

// At returns channel c at (x,y). Out-of-bounds reads return 0.
func (m *Image) At(x, y, c int) float32 {
	if x < 0 || y < 0 || x >= m.W || y >= m.H || c < 0 || c >= Channels {
		return 0
	}
	return m.Pix[c*m.W*m.H+y*m.W+x]
}

// Set writes channel c at (x,y), clamping the value to [0,1] and ignoring
// out-of-bounds writes.
func (m *Image) Set(x, y, c int, v float32) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H || c < 0 || c >= Channels {
		return
	}
	m.Pix[c*m.W*m.H+y*m.W+x] = clampF32(v)
}

// SetRGB writes all three channels at (x,y), clamping like Set and
// ignoring out-of-bounds writes.
func (m *Image) SetRGB(x, y int, r, g, b float32) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return
	}
	i, plane := y*m.W+x, m.W*m.H
	m.Pix[i] = clampF32(r)
	m.Pix[plane+i] = clampF32(g)
	m.Pix[2*plane+i] = clampF32(b)
}

// Row returns row y of the red, green and blue planes, aliasing Pix:
// each slice is W long and index x is pixel (x,y). y must be in
// [0,H).
func (m *Image) Row(y int) (r, g, b []float32) {
	i, plane := y*m.W, m.W*m.H
	return m.Pix[i : i+m.W], m.Pix[plane+i : plane+i+m.W], m.Pix[2*plane+i : 2*plane+i+m.W]
}

// fillRow paints pixels [x0,x1) of row y with one color, clipping the
// span to the image and clamping the color once.
func (m *Image) fillRow(y, x0, x1 int, r, g, b float32) {
	x0, x1 = max(x0, 0), min(x1, m.W)
	if y < 0 || y >= m.H || x0 >= x1 {
		return
	}
	rs, gs, bs := m.Row(y)
	fill(rs[x0:x1], clampF32(r))
	fill(gs[x0:x1], clampF32(g))
	fill(bs[x0:x1], clampF32(b))
}

func fill(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}

// Clone deep-copies the image.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, Pix: make([]float32, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

func clampF32(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ToNRGBA converts to the stdlib image type (for PNG encoding).
func (m *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			out.SetNRGBA(x, y, color.NRGBA{
				R: uint8(m.At(x, y, 0)*255 + 0.5),
				G: uint8(m.At(x, y, 1)*255 + 0.5),
				B: uint8(m.At(x, y, 2)*255 + 0.5),
				A: 255,
			})
		}
	}
	return out
}

// FromImage converts any stdlib image into the float representation.
func FromImage(src image.Image) *Image {
	b := src.Bounds()
	out := MustNewImage(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.SetRGB(x, y, float32(r)/65535, float32(g)/65535, float32(bl)/65535)
		}
	}
	return out
}

// EncodePNG writes the image as PNG.
func (m *Image) EncodePNG(w io.Writer) error {
	if err := png.Encode(w, m.ToNRGBA()); err != nil {
		return fmt.Errorf("render: encode png: %w", err)
	}
	return nil
}

// DecodePNG reads a PNG into the float representation.
func DecodePNG(r io.Reader) (*Image, error) {
	img, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("render: decode png: %w", err)
	}
	return FromImage(img), nil
}

// EncodeRawF32 serializes the pixel buffer as little-endian float32
// bytes — the lossless wire format the LLM API offers alongside PNG.
// Unlike the 8-bit PNG path, a raw round trip reproduces the image
// bit-for-bit, which is what makes remote classification reports
// identical to in-process ones.
func (m *Image) EncodeRawF32() []byte {
	out := make([]byte, 4*len(m.Pix))
	for i, v := range m.Pix {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// DecodeRawF32 rebuilds a w×h image from EncodeRawF32 bytes. Values are
// clamped to [0,1] (NaNs become 0) so untrusted payloads cannot violate
// the pixel invariants; in-range inputs round-trip exactly. The payload
// length is validated against the claimed dimensions (without
// multiplying them, so huge w×h cannot overflow) before any allocation,
// so a small hostile request cannot make the decoder allocate
// gigabytes.
func DecodeRawF32(w, h int, data []byte) (*Image, error) {
	if err := checkRawF32(w, h, len(data)); err != nil {
		return nil, err
	}
	img, err := NewImage(w, h)
	if err != nil {
		return nil, err
	}
	for i := range img.Pix {
		img.Pix[i] = canonF32(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
	}
	return img, nil
}

// checkRawF32 reports whether n bytes are the EncodeRawF32 payload of
// a w×h image. It divides rather than multiplies, so no w and h can
// wrap the product around to a small length.
func checkRawF32(w, h, n int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("render: image size must be positive, got %dx%d", w, h)
	}
	const pixelBytes = 4 * Channels
	if px := n / pixelBytes; n%pixelBytes != 0 || px%w != 0 || px/w != h {
		return fmt.Errorf("render: raw f32 payload is %d bytes, want %d for %dx%d", n, pixelBytes*int64(w)*int64(h), w, h)
	}
	return nil
}

// canonF32 is the pixel value DecodeRawF32 stores for v: NaN becomes 0
// and the rest clamps to [0,1] (-0 stays -0).
func canonF32(v float32) float32 {
	if v != v {
		return 0
	}
	return clampF32(v)
}

// ErrTooLarge is wrapped by the upload decoders when an image payload,
// or the pixel buffer a PNG header declares, exceeds the caller's cap.
var ErrTooLarge = errors.New("exceeds limit")

// DecodeBase64PNG decodes a base64 PNG upload, allocating no more than
// maxBytes for either the decoded payload or the float32 pixel buffer.
// The payload bound is checked before base64 decoding, and the pixel
// bound against the header's dimensions before any pixel is inflated:
// a tiny compressed PNG can declare an enormous canvas. Size errors
// wrap ErrTooLarge. Error messages are written for API clients, so
// services return them verbatim.
func DecodeBase64PNG(b64 string, maxBytes int) (*Image, error) {
	if err := checkPayload(len(b64), maxBytes); err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("image is not valid base64: %v", err)
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("image is not valid PNG: %v", err)
	}
	if decoded := int64(cfg.Width) * int64(cfg.Height) * Channels * 4; cfg.Width <= 0 || cfg.Height <= 0 || decoded > int64(maxBytes) {
		return nil, fmt.Errorf("decoded image %dx%d %w of %d bytes", cfg.Width, cfg.Height, ErrTooLarge, maxBytes)
	}
	img, err := DecodePNG(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("image is not valid PNG: %v", err)
	}
	return img, nil
}

// AppendRawF32Base64 decodes a base64 EncodeRawF32 upload of w×h pixels
// and appends its canonical bytes to dst: every float32 as DecodeRawF32
// stores it, so DecodeRawF32 on them builds the image the upload
// describes, and they equal that image's EncodeRawF32. The payload is
// checked against maxBytes before decoding, as DecodeBase64PNG does,
// and the buffer is canonicalised in place, so the call allocates only
// when dst lacks room for the payload. On error dst comes back at its
// original length. Like DecodeBase64PNG's, its error messages are
// written for API clients.
func AppendRawF32Base64(dst, b64 []byte, w, h, maxBytes int) ([]byte, error) {
	if err := checkPayload(len(b64), maxBytes); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = slices.Grow(dst, base64.StdEncoding.DecodedLen(len(b64)))
	n, err := base64.StdEncoding.Decode(dst[start:cap(dst)], b64)
	if err != nil {
		return dst[:start], fmt.Errorf("image is not valid base64: %v", err)
	}
	raw := dst[start : start+n]
	if err := checkRawF32(w, h, n); err != nil {
		return dst[:start], fmt.Errorf("image is not a valid raw f32 buffer: %v", err)
	}
	for i := 0; i < n; i += 4 {
		// The bit patterns up to 1.0's are the values in [+0, 1], which
		// canonF32 keeps.
		if u := binary.LittleEndian.Uint32(raw[i:]); u > 0x3f800000 {
			binary.LittleEndian.PutUint32(raw[i:], math.Float32bits(canonF32(math.Float32frombits(u))))
		}
	}
	return dst[:start+n], nil
}

// UploadBodyLimit bounds a JSON request body that carries one base64
// image upload of at most maxImageBytes: the 4/3 base64 expansion,
// rounded up to 2x, plus 1 MiB for the rest of the request.
func UploadBodyLimit(maxImageBytes int) int64 { return int64(maxImageBytes)*2 + 1<<20 }

// checkPayload enforces the payload cap on a base64 literal of n bytes
// before its decoded buffer is allocated.
func checkPayload(n, maxBytes int) error {
	if base64.StdEncoding.DecodedLen(n) > maxBytes {
		return fmt.Errorf("image payload %w of %d bytes", ErrTooLarge, maxBytes)
	}
	return nil
}

// Resize scales the image to (w,h) with bilinear interpolation.
func (m *Image) Resize(w, h int) (*Image, error) {
	out, err := NewImage(w, h)
	if err != nil {
		return nil, err
	}
	if m.W == w && m.H == h {
		copy(out.Pix, m.Pix)
		return out, nil
	}
	xScale := float64(m.W) / float64(w)
	yScale := float64(m.H) / float64(h)
	for y := 0; y < h; y++ {
		srcY := (float64(y)+0.5)*yScale - 0.5
		y0 := int(math.Floor(srcY))
		fy := float32(srcY - float64(y0))
		for x := 0; x < w; x++ {
			srcX := (float64(x)+0.5)*xScale - 0.5
			x0 := int(math.Floor(srcX))
			fx := float32(srcX - float64(x0))
			for c := 0; c < Channels; c++ {
				v00 := m.atClamped(x0, y0, c)
				v10 := m.atClamped(x0+1, y0, c)
				v01 := m.atClamped(x0, y0+1, c)
				v11 := m.atClamped(x0+1, y0+1, c)
				top := v00*(1-fx) + v10*fx
				bot := v01*(1-fx) + v11*fx
				out.Set(x, y, c, top*(1-fy)+bot*fy)
			}
		}
	}
	return out, nil
}

// atClamped reads with edge-clamped coordinates.
func (m *Image) atClamped(x, y, c int) float32 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= m.W {
		x = m.W - 1
	}
	if y >= m.H {
		y = m.H - 1
	}
	return m.Pix[c*m.W*m.H+y*m.W+x]
}

// SignalPower returns the mean squared pixel value, used as the signal
// term when injecting noise at a target SNR.
func (m *Image) SignalPower() float64 {
	var sum float64
	for _, v := range m.Pix {
		sum += float64(v) * float64(v)
	}
	if len(m.Pix) == 0 {
		return 0
	}
	return sum / float64(len(m.Pix))
}

// AddGaussianNoiseSNR returns a copy with additive white Gaussian noise at
// the given signal-to-noise ratio in dB (the paper's Fig. 3 protocol:
// SNR 5..30 dB). Lower SNR means more noise. Deterministic in the seed.
func (m *Image) AddGaussianNoiseSNR(snrDB float64, seed int64) *Image {
	signal := m.SignalPower()
	noisePower := signal / math.Pow(10, snrDB/10)
	sigma := float32(math.Sqrt(noisePower))
	rng := rand.New(randsrc.New(seed))
	out := m.Clone()
	for i, v := range out.Pix {
		out.Pix[i] = clampF32(v + sigma*float32(rng.NormFloat64()))
	}
	return out
}
