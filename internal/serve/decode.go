package serve

// The /v1/classify body decoder. An upload body is one long base64
// literal in a small object, and encoding/json walks that literal byte
// by byte three times over (scan, rescan, unquote). The canonical form
// of the body — the one json.Marshal writes for a ClassifyRequest — is
// parsed here in one pass instead; every other body goes to
// wire.DecodeStrict, which stays the reference for what is accepted and
// for every error message. FuzzDecodeClassify holds the two to the same
// struct on every body the scanner accepts.

import (
	"bytes"
	"encoding/binary"
	"strconv"

	"nbhd/internal/wire"
)

// DecodeClassify strictly decodes a /v1/classify body that
// wire.ReadBody returned into req, as wire.DecodeBytes would, with one
// difference: on a canonical body the image_f32_base64 literal is left
// in body, not copied into FrameRef.ImageF32Base64, so req then aliases
// body and must not outlive it.
func DecodeClassify(body []byte, req *ClassifyRequest) *wire.Error {
	var fast ClassifyRequest
	if scanClassify(body, &fast) {
		*req = fast
		return nil
	}
	return wire.DecodeBytes(body, req)
}

// The keys scanClassify accepts, in the order of its value switches.
var (
	classifyKeys = []string{"backend", "frame", "language", "mode", "nonce"}
	frameKeys    = []string{"index", "image_f32_base64", "width", "height", "image_png_base64"}
)

// scanClassify parses the narrow form of a ClassifyRequest body and
// reports false for anything outside it: keys spelled exactly as the
// JSON tags, each at most once; strings of printable ASCII with no
// escape; integers only for index, width, height and nonce; JSON
// whitespace; nothing but whitespace after the object. Indicators,
// temperature and top_p are outside it. Every body it accepts is one
// DecodeStrict accepts with the same result, except that the
// image_f32_base64 literal stays a sub-slice of body (FrameRef.f32).
func scanClassify(body []byte, req *ClassifyRequest) bool {
	s := scanner{b: body}
	ok := s.object(classifyKeys, func(k int) bool {
		switch k {
		case 0:
			return s.str(&req.Backend)
		case 1:
			return s.frame(&req.Frame)
		case 2:
			return s.str(&req.Language)
		case 3:
			return s.str(&req.Mode)
		default:
			n, ok := s.integer(64)
			req.Nonce = n
			return ok
		}
	})
	s.space()
	return ok && s.i == len(s.b)
}

// scanner walks a JSON body; every method reports false on input
// outside the narrow form, leaving the body to DecodeStrict.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) frame(f *FrameRef) bool {
	return s.object(frameKeys, func(k int) bool {
		switch k {
		case 0:
			n, ok := s.integer(strconv.IntSize)
			idx := int(n)
			f.Index = &idx
			return ok
		case 1:
			v, ok := s.literal()
			f.f32 = v
			return ok
		case 2:
			n, ok := s.integer(strconv.IntSize)
			f.Width = int(n)
			return ok
		case 3:
			n, ok := s.integer(strconv.IntSize)
			f.Height = int(n)
			return ok
		default:
			return s.str(&f.ImagePNGBase64)
		}
	})
}

// object parses an object whose keys are among keys, each at most once,
// calling value with the key's position to parse its value.
func (s *scanner) object(keys []string, value func(k int) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := s.literal()
		if !ok || !s.next(':') {
			return false
		}
		k := -1
		for i, name := range keys {
			if string(key) == name {
				k = i
				break
			}
		}
		if k < 0 || seen&(1<<k) != 0 || !value(k) {
			return false
		}
		seen |= 1 << k
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal parses a string of bytes 0x20–0x7E with no backslash, whose
// bytes are its value.
func (s *scanner) literal() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	v := s.b[s.i : s.i+n]
	if !printable(v) {
		return nil, false
	}
	s.i += n + 1
	return v, true
}

// printable reports whether every byte of v is in 0x20–0x7E and none
// is a backslash. It tests eight bytes per step: in each word, a byte
// below 0x20 or equal to 0x5C borrows into its top bit when that bias
// is subtracted, and a byte above 0x7E carries into it when 0x01 is
// added.
func printable(v []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(v) >= 8; v = v[8:] {
		x := binary.LittleEndian.Uint64(v)
		bs := x ^ 0x5c*ones
		if ((x-0x20*ones)&^x|(bs-ones)&^bs|(x+ones)|x)&highs != 0 {
			return false
		}
	}
	for _, c := range v {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	return true
}

func (s *scanner) str(dst *string) bool {
	v, ok := s.literal()
	*dst = string(v)
	return ok
}

// integer parses a JSON integer (no fraction or exponent) that fits in
// bits, as encoding/json does for an int field of that width.
func (s *scanner) integer(bits int) (int64, bool) {
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	if s.i == digits || (s.b[digits] == '0' && s.i-digits > 1) {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s.b[start:s.i]), 10, bits)
	return n, err == nil
}
