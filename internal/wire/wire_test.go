package wire_test

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nbhd/internal/wire"
)

func TestWriteErrorIsByteExact(t *testing.T) {
	cases := []struct {
		name, typ, msg, reqID string
		status                int
		want                  string
	}{
		{"with request ID", "overloaded", `backend "m" queue full (4 in flight)`, "srv-000001", http.StatusServiceUnavailable,
			`{"error":{"message":"backend \"m\" queue full (4 in flight)","type":"overloaded","request_id":"srv-000001"}}` + "\n"},
		{"request ID omitted when empty", "invalid_request_error", "use GET", "", http.StatusMethodNotAllowed,
			`{"error":{"message":"use GET","type":"invalid_request_error"}}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			wire.WriteError(rec, tc.status, tc.typ, tc.msg, tc.reqID)
			if rec.Code != tc.status {
				t.Errorf("status = %d, want %d", rec.Code, tc.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			if got := rec.Body.String(); got != tc.want {
				t.Errorf("body = %q\nwant   %q", got, tc.want)
			}
		})
	}
}

type payload struct {
	A string `json:"a"`
}

func TestDecodeBody(t *testing.T) {
	const limit = 32
	// Each padded body is {"a":"xxx…"} grown to exactly n bytes.
	padded := func(n int) string { return `{"a":"` + strings.Repeat("x", n-8) + `"}` }
	cases := []struct {
		name, body string
		wantStatus int // 0 = accepted
		wantMsg    string
	}{
		{"valid", `{"a":"b"}`, 0, ""},
		{"trailing whitespace", "{\"a\":\"b\"}\n\t ", 0, ""},
		{"valid at the limit", padded(limit), 0, ""},
		{"one byte past the limit", padded(limit + 1), http.StatusRequestEntityTooLarge, "request body exceeds limit of 32 bytes"},
		{"malformed at the limit", padded(limit)[:limit-1] + "x", http.StatusBadRequest, "empty or malformed JSON body: "},
		{"unknown field", `{"a":"b","c":1}`, http.StatusBadRequest, `json: unknown field "c"`},
		{"trailing brace", `{"a":"b"}}`, http.StatusBadRequest, "trailing data after JSON value"},
		{"trailing bracket", `{"a":"b"}]`, http.StatusBadRequest, "trailing data after JSON value"},
		{"trailing value", `{"a":"b"}{}`, http.StatusBadRequest, "trailing data after JSON value"},
		{"trailing garbage", `{"a":"b"} x`, http.StatusBadRequest, "trailing data after JSON value"},
		{"trailing data past the limit", `{"a":"b"}` + strings.Repeat(" ", limit), http.StatusRequestEntityTooLarge, "exceeds limit"},
		// The body is read whole before it is parsed, so a body over its
		// limit is a 413 even when its first byte is already malformed.
		{"malformed prefix past the limit", "x" + strings.Repeat(" ", limit), http.StatusRequestEntityTooLarge, "exceeds limit"},
		{"empty body", ``, http.StatusBadRequest, "empty or malformed JSON body: EOF"},
		{"whitespace body", " \n\t ", http.StatusBadRequest, "empty or malformed JSON body: EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
			var v payload
			herr := wire.DecodeBody(rec, r, limit, &v)
			if tc.wantStatus == 0 {
				if herr != nil {
					t.Fatalf("rejected: %+v", herr)
				}
				if v.A == "" {
					t.Fatalf("decoded nothing from %q", tc.body)
				}
				return
			}
			if herr == nil {
				t.Fatalf("accepted %q", tc.body)
			}
			if herr.Status != tc.wantStatus || herr.Type != "invalid_request_error" {
				t.Errorf("got %d %s, want %d invalid_request_error", herr.Status, herr.Type, tc.wantStatus)
			}
			if !strings.Contains(herr.Message, tc.wantMsg) {
				t.Errorf("message %q does not contain %q", herr.Message, tc.wantMsg)
			}
		})
	}
}

// TestReadPooledBodyMatchesReadBody: the pooled reader returns what
// ReadBody does, bytes and errors alike, including from a buffer an
// earlier, longer body left behind.
func TestReadPooledBodyMatchesReadBody(t *testing.T) {
	const limit = 32
	for _, body := range []string{strings.Repeat("y", limit), `{"a":"b"}`, strings.Repeat("z", limit+1), ""} {
		read := func(f func(http.ResponseWriter, *http.Request, int64) ([]byte, *wire.Error)) ([]byte, *wire.Error) {
			return f(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), limit)
		}
		want, wantErr := read(wire.ReadBody)
		got, gotErr := read(func(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *wire.Error) {
			b, buf, herr := wire.ReadPooledBody(w, r, limit)
			b = append([]byte(nil), b...)
			wire.ReleaseBody(buf)
			return b, herr
		})
		if string(got) != string(want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Errorf("body %q: pooled read %q %+v, ReadBody %q %+v", body, got, gotErr, want, wantErr)
		}
	}
}

func TestShedRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		secs int
		want string
	}{{2, "2"}, {1, "1"}, {0, ""}, {-1, ""}} {
		t.Run(strconv.Itoa(tc.secs), func(t *testing.T) {
			rec := httptest.NewRecorder()
			wire.Shed(rec, http.StatusTooManyRequests, "quota_exceeded", "request budget exhausted", "req-000007", tc.secs)
			if rec.Code != http.StatusTooManyRequests {
				t.Errorf("status = %d", rec.Code)
			}
			got, set := rec.Header()["Retry-After"]
			if tc.want == "" && set {
				t.Errorf("Retry-After %v set for %d seconds", got, tc.secs)
			}
			if tc.want != "" && rec.Header().Get("Retry-After") != tc.want {
				t.Errorf("Retry-After = %v, want %q", got, tc.want)
			}
			var body wire.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.RequestID != "req-000007" {
				t.Errorf("body %q (err %v)", rec.Body.String(), err)
			}
		})
	}
}

func TestIDsAreMonotoneAndPrefixed(t *testing.T) {
	ids := wire.NewIDs("flt")
	if first := ids.Next(); first != "flt-000001" {
		t.Fatalf("first ID = %q, want flt-000001", first)
	}
	// Concurrent callers never share an ID.
	const workers, each = 8, 50
	seen := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				id := ids.Next()
				mu.Lock()
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*each {
		t.Fatalf("%d distinct IDs from %d calls", len(seen), workers*each)
	}
	// Sequential calls keep the prefix and strictly increase.
	prev := 1 + workers*each
	for range 3 {
		id := ids.Next()
		n, err := strconv.Atoi(strings.TrimPrefix(id, "flt-"))
		if !strings.HasPrefix(id, "flt-") || err != nil || n != prev+1 {
			t.Fatalf("ID %q after sequence number %d", id, prev)
		}
		prev = n
	}
	if id := wire.NewIDs("lab").Next(); id != "lab-000001" {
		t.Fatalf("independent sequence starts at %q", id)
	}
}

// freeAddr returns a loopback address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func TestServeDrainsInFlightRequests(t *testing.T) {
	addr := freeAddr(t)
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		_, _ = io.WriteString(w, "done")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drained := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- wire.Serve(ctx, addr, h, func() { close(drained) }) }()

	got := make(chan string, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/")
			if err != nil {
				if time.Now().After(deadline) {
					got <- "dial: " + err.Error()
					return
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			b, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			got <- string(b)
			return
		}
	}()
	select {
	case <-entered:
	case b := <-got:
		t.Fatalf("request never reached the handler: %s", b)
	}
	cancel()
	<-drained
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if b := <-got; b != "done" {
		t.Fatalf("in-flight request got %q, want done", b)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
}

func TestServeReturnsListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	err = wire.Serve(context.Background(), ln.Addr().String(), http.NotFoundHandler(), func() {
		t.Error("drain called without cancellation")
	})
	if err == nil {
		t.Fatal("Serve on a taken address returned nil")
	}
}
