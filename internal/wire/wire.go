// Package wire is the HTTP shell the repository's four JSON services
// share: the simulated LLM API (llmserve), the batching gateway
// (serve), the hash-ring router (fleet) and the lab control plane
// (lab). They speak one contract, and this package is its only copy:
//
//   - Errors are ErrorResponse bodies, {"error": {"message", "type",
//     "request_id"}}, the chat-completions shape the paper's models
//     answer with, so one client-side decoder (llmclient) reads all four.
//   - Overload is shed with 429 or 503 plus a delta-seconds Retry-After
//     (Shed), which llmclient's retry loop honours.
//   - JSON input is strict: exactly one value, no unknown fields, no
//     trailing data (DecodeStrict). Request bodies are read whole and
//     bounded first, and a body over its limit is a 413, never a
//     truncated-JSON 400 (ReadBody, DecodeBody; ReadPooledBody reads
//     into a recycled buffer). Config and spec parsers use the same
//     rule.
//   - Every request gets a traceable ID from a prefixed sequence (IDs).
//   - Daemons listen, drain on cancellation and shut down gracefully
//     through Serve.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrorResponse is the error body every service writes.
type ErrorResponse struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
		// RequestID identifies the failed request so client retries are
		// traceable in chaos mode.
		RequestID string `json:"request_id,omitempty"`
	} `json:"error"`
}

// Error is a request failure bound for an ErrorResponse body.
type Error struct {
	Status  int
	Type    string
	Message string
}

// BadRequest is a 400 invalid_request_error with a formatted message.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Type: "invalid_request_error", Message: fmt.Sprintf(format, args...)}
}

// Write sends e as an ErrorResponse tagged with reqID.
func (e *Error) Write(w http.ResponseWriter, reqID string) {
	WriteError(w, e.Status, e.Type, e.Message, reqID)
}

// WriteJSON sends v as a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError sends an ErrorResponse; an empty reqID is omitted.
func WriteError(w http.ResponseWriter, status int, typ, msg, reqID string) {
	var body ErrorResponse
	body.Error.Message = msg
	body.Error.Type = typ
	body.Error.RequestID = reqID
	WriteJSON(w, status, body)
}

// Shed is WriteError for load shedding (429 or 503): it advertises
// Retry-After when retryAfterSeconds is positive and omits the header
// otherwise, leaving clients to their own backoff.
func Shed(w http.ResponseWriter, status int, typ, msg, reqID string, retryAfterSeconds int) {
	if retryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	WriteError(w, status, typ, msg, reqID)
}

// DecodeStrict decodes exactly one JSON value from r into v. Unknown
// object fields and anything but whitespace after the value are errors.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token, not More: More reports false before a stray '}' or ']', so
	// `{"a":1}}` would pass. Token must reach a clean end of input.
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			return fmt.Errorf("trailing data after JSON value: %v", tok)
		}
		return fmt.Errorf("trailing data after JSON value: %w", err)
	}
	return nil
}

// ReadBody reads a request body of at most limit bytes. A body over
// the limit is a 413 invalid_request_error, whatever its first bytes
// hold.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *Error) {
	return readBody(w, r, limit, new(bytes.Buffer))
}

// maxPooledBody caps the buffers ReleaseBody keeps, so one large body
// does not stay pinned in the pool.
const maxPooledBody = 1 << 20

// bodies recycles ReadPooledBody's buffers.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadPooledBody is ReadBody into a buffer taken from a pool. It always
// returns the buffer: hand it to ReleaseBody once nothing reads body
// any more, because the next request may then overwrite its bytes.
func ReadPooledBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *bytes.Buffer, *Error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	body, herr := readBody(w, r, limit, buf)
	return body, buf, herr
}

// ReleaseBody returns a ReadPooledBody buffer to the pool, unless it
// grew past 1 MiB.
func ReleaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodies.Put(buf)
	}
}

// readBody is ReadBody into an empty buf.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer) ([]byte, *Error) {
	if n := r.ContentLength; n > 0 && n <= limit {
		// One allocation for a declared length: ReadFrom keeps MinRead
		// bytes free before each read.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &Error{Status: http.StatusRequestEntityTooLarge, Type: "invalid_request_error",
				Message: fmt.Sprintf("request body exceeds limit of %d bytes", limit)}
		}
		return nil, BadRequest("empty or malformed JSON body: %v", err)
	}
	return buf.Bytes(), nil
}

// DecodeBytes strictly decodes a body that ReadBody returned
// (DecodeStrict). Any failure, including an empty body, is a 400
// invalid_request_error.
func DecodeBytes(body []byte, v any) *Error {
	if err := DecodeStrict(bytes.NewReader(body), v); err != nil {
		return BadRequest("empty or malformed JSON body: %v", err)
	}
	return nil
}

// DecodeBody strictly decodes a request body of at most limit bytes:
// ReadBody, then DecodeBytes.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) *Error {
	body, herr := ReadBody(w, r, limit)
	if herr != nil {
		return herr
	}
	return DecodeBytes(body, v)
}

// IDs mints request IDs "<prefix>-000001", "<prefix>-000002", ...; it
// is safe for concurrent use.
type IDs struct {
	prefix string
	n      atomic.Int64
}

// NewIDs starts a sequence whose first ID is prefix + "-000001".
func NewIDs(prefix string) *IDs { return &IDs{prefix: prefix} }

// Next returns the sequence's next ID.
func (s *IDs) Next() string { return fmt.Sprintf("%s-%06d", s.prefix, s.n.Add(1)) }

// Serve listens on addr and serves h until ctx is done. It then calls
// drain (when non-nil) so the service can flip /healthz and stop taking
// work, and shuts the server down gracefully: the listener closes and
// Serve returns only after in-flight requests finish, or after 30
// seconds. A failure to listen is returned at once.
func Serve(ctx context.Context, addr string, h http.Handler, drain func()) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	listenErr := make(chan error, 1)
	go func() { listenErr <- srv.ListenAndServe() }()
	select {
	case err := <-listenErr:
		return err
	case <-ctx.Done():
	}
	if drain != nil {
		drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}
