package serve

import (
	"bytes"
	"reflect"
	"testing"

	"nbhd/internal/wire"
)

// FuzzDecodeClassify holds the canonical-body scanner to the strict
// decoder it stands in front of: any body scanClassify accepts,
// wire.DecodeStrict accepts too, with a reflect.DeepEqual struct, and
// DecodeClassify answers every body exactly as wire.DecodeBytes does.
// The scanner leaves the image_f32_base64 literal in the body
// (FrameRef.f32), so each comparison first moves it into the string
// field DecodeStrict fills (withLiteral).
// Seeds under testdata/fuzz/FuzzDecodeClassify cover the canonical
// upload and index bodies and the forms the scanner must leave to
// encoding/json: escapes, raw control bytes, case-folded and duplicate
// keys, null, non-integer and overflowing numbers, trailing data,
// unknown fields and non-ASCII bytes.
func FuzzDecodeClassify(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var strict ClassifyRequest
		strictErr := wire.DecodeStrict(bytes.NewReader(body), &strict)
		var fast ClassifyRequest
		if scanClassify(body, &fast) {
			if strictErr != nil {
				t.Fatalf("scanner accepted a body DecodeStrict rejects (%v):\n%q", strictErr, body)
			}
			if !reflect.DeepEqual(withLiteral(fast), strict) {
				t.Fatalf("scanner decoded %+v, DecodeStrict %+v:\n%q", fast, strict, body)
			}
		}
		var got, want ClassifyRequest
		gotErr, wantErr := DecodeClassify(body, &got), wire.DecodeBytes(body, &want)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("DecodeClassify error %+v, DecodeBytes %+v:\n%q", gotErr, wantErr, body)
		}
		if gotErr == nil && !reflect.DeepEqual(withLiteral(got), want) {
			t.Fatalf("DecodeClassify decoded %+v, DecodeBytes %+v:\n%q", got, want, body)
		}
	})
}

// withLiteral returns req with the image_f32_base64 literal the
// scanner left in the body copied into FrameRef.ImageF32Base64, as
// DecodeStrict decodes it.
func withLiteral(req ClassifyRequest) ClassifyRequest {
	if req.Frame.f32 != nil {
		req.Frame.ImageF32Base64, req.Frame.f32 = string(req.Frame.f32), nil
	}
	return req
}

// TestScanClassifyTakesTheCanonicalForms pins which bodies take the
// scanner path: json.Marshal's output and light reformatting of it do,
// so the gateway's hot path never silently falls back to encoding/json,
// and everything outside the narrow form is left to DecodeStrict.
func TestScanClassifyTakesTheCanonicalForms(t *testing.T) {
	for _, body := range []string{
		`{"backend":"cnn","frame":{"image_f32_base64":"AACAP/+A","width":64,"height":64}}`,
		`{"backend":"cnn","frame":{"index":7}}`,
		`{"backend":"cnn","frame":{"image_png_base64":"iVBORw=="},"language":"english","mode":"parallel","nonce":-3}`,
		" {\n\t\"frame\" : { \"height\":1 , \"width\":2,\"image_f32_base64\":\"\" } ,\r\n\"backend\":\"\"}\n",
		`{}`,
	} {
		var req ClassifyRequest
		if !scanClassify([]byte(body), &req) {
			t.Errorf("scanner declined %q", body)
		}
	}
	for _, body := range []string{
		`{"backend":"a","backend":"b"}`,
		`{"frame":{"index":0},"frame":{"width":2}}`,
		`{"frame":{"index":0,"index":1}}`,
		`{"backend":"c\/n"}`,
		`{"Backend":"cnn"}`,
		`{"backend":null}`,
		`{"frame":{"index":null}}`,
		`{"frame":{"width":1.0}}`,
		`{"frame":{"width":1e2}}`,
		`{"frame":{"width":01}}`,
		`{"frame":{"width":true}}`,
		`{"nonce":9223372036854775808}`,
		`{"indicators":["SW"]}`,
		`{"temperature":0}`,
		`{"backend":"cnn"}x`,
		"{\"backend\":\"cnn\"}\f",
		"{\"backend\":\"c\x7fn\"}",
		"{\"backend\":\"c\u00e9\"}",
		`[]`,
		``,
	} {
		var req ClassifyRequest
		if scanClassify([]byte(body), &req) {
			t.Errorf("scanner accepted %q", body)
		}
	}
}

// TestPrintableMatchesTheByteRule checks the eight-bytes-a-step test
// against the rule it implements for every byte value at every offset
// of a word and in the tail, next to printable neighbours of every kind.
func TestPrintableMatchesTheByteRule(t *testing.T) {
	for _, fill := range []byte{' ', 'A', '[', ']', '~'} {
		for pos := range 11 {
			for c := range 256 {
				v := bytes.Repeat([]byte{fill}, 11)
				v[pos] = byte(c)
				want := c >= 0x20 && c <= 0x7e && c != '\\'
				if got := printable(v); got != want {
					t.Fatalf("printable(%q) = %v, want %v", v, got, want)
				}
			}
		}
	}
}
