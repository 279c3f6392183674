package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cafa/internal/service/api"
	"cafa/internal/trace"
)

// TestStreamSubmitParity: the binary and text encodings of one trace
// stream through the same ingest sweep and serve byte-identical
// artifacts.
func TestStreamSubmitParity(t *testing.T) {
	raw := testTrace(t, 1)
	tr, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := tr.EncodeText(&txt); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 2})
	var bodies [2]map[string][]byte
	for i, enc := range [][]byte{raw, txt.Bytes()} {
		rec, j := post(t, s, enc, "?name=zxing.trace")
		if rec.Code != http.StatusAccepted {
			t.Fatalf("upload %d: submit = %d: %s", i, rec.Code, rec.Body.String())
		}
		j = waitDone(t, s, j.ID)
		if j.State != api.StateDone {
			t.Fatalf("upload %d: job = %+v", i, j)
		}
		bodies[i] = map[string][]byte{}
		for _, path := range []string{"/report", "/evidence", "/triage"} {
			rec := get(t, s, "/v1/jobs/"+j.ID+path)
			if rec.Code != http.StatusOK {
				t.Fatalf("upload %d: %s = %d", i, path, rec.Code)
			}
			bodies[i][path] = append([]byte(nil), rec.Body.Bytes()...)
		}
	}
	for _, path := range []string{"/report", "/evidence", "/triage"} {
		if !bytes.Equal(bodies[0][path], bodies[1][path]) {
			t.Errorf("%s differs between the binary and text uploads", path)
		}
	}
}

// TestStreamCacheHitAfterUpload: the cache key is the digest of the
// complete body, so a re-submitted trace is served from cache without
// a second ingest.
func TestStreamCacheHitAfterUpload(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	raw := testTrace(t, 2)

	rec, j := post(t, s, raw, "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", rec.Code, rec.Body.String())
	}
	first := waitDone(t, s, j.ID)
	if first.State != api.StateDone {
		t.Fatalf("first job = %+v", first)
	}

	rec, j2 := post(t, s, raw, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if !j2.Cached || j2.State != api.StateDone {
		t.Fatalf("resubmit job = %+v, want cached+done", j2)
	}
	if j2.SHA256 != first.SHA256 {
		t.Fatalf("sha mismatch: %s vs %s", j2.SHA256, first.SHA256)
	}
	st := s.CacheStats()
	if st.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Hits)
	}

	// The cached artifact serves for the second job too.
	a := get(t, s, "/v1/jobs/"+first.ID+"/report")
	b := get(t, s, "/v1/jobs/"+j2.ID+"/report")
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Error("cached report differs from computed one")
	}
}

// TestStreamChunkedUpload: the body arrives over a pipe in small
// chunks (no Content-Length, as with chunked transfer encoding); the
// handler reads it whole, ingests it, and the job completes normally.
func TestStreamChunkedUpload(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	raw := testTrace(t, 3)

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		defer pw.Close()
		for len(raw) > 0 {
			n := 256
			if n > len(raw) {
				n = len(raw)
			}
			if _, err := pw.Write(raw[:n]); err != nil {
				done <- err
				return
			}
			raw = raw[n:]
		}
		done <- nil
	}()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?name=chunked.trace", pr)
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	var j api.Job
	if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, s, j.ID)
	if j.State != api.StateDone {
		t.Fatalf("job = %+v", j)
	}
}

// TestStreamSubmitErrors: submit rejects garbage, validation
// failures, and empty bodies with 400.
func TestStreamSubmitErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	if rec, _ := post(t, s, []byte("not a trace at all"), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage = %d, want 400", rec.Code)
	}
	if rec, _ := post(t, s, nil, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("empty = %d, want 400", rec.Code)
	} else if !strings.Contains(rec.Body.String(), "empty request body") {
		t.Errorf("empty body message = %s", rec.Body.String())
	}

	// Structurally decodable but semantically invalid: duplicate begin.
	bad := trace.New()
	bad.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "T"})
	bad.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
	bad.Append(trace.Entry{Task: 1, Op: trace.OpBegin, Time: 1})
	var buf bytes.Buffer
	if err := bad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rec, _ := post(t, s, buf.Bytes(), "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid trace = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "validation") {
		t.Errorf("invalid trace message = %s", rec.Body.String())
	}
}

// TestSubmitRejectsPerEntryFaults: the per-entry analysis passes run
// in the submit sweep, so a trace whose first fault is a lockset
// double acquire answers 400 naming that fault — it is never queued
// as a job that would fail later.
func TestSubmitRejectsPerEntryFaults(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec, _ := post(t, s, locksetFaultTrace(t), "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("lockset fault = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "lockset: entry 2: lock l5 acquired twice by t1") {
		t.Errorf("message %q does not name the lockset fault", e.Error)
	}
	if n := len(s.statsSnapshot().JobsByState); n != 0 {
		t.Errorf("rejected upload left %d job states behind", n)
	}
}

// locksetFaultTrace encodes a trace whose first fault is a lockset
// double acquire at entry 2.
func locksetFaultTrace(t *testing.T) []byte {
	t.Helper()
	bad := trace.New()
	bad.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "T"})
	for i, e := range []trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpLock, Lock: 5},
		{Task: 1, Op: trace.OpLock, Lock: 5},
		{Task: 1, Op: trace.OpUnlock, Lock: 5},
		{Task: 1, Op: trace.OpEnd},
	} {
		e.Time = int64(i)
		bad.Append(e)
	}
	var buf bytes.Buffer
	if err := bad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitAdmitsBeforeIngest: with the queue full, an upload is
// answered 429 before it is decoded, so even an upload with a
// per-entry fault gets a 429, not the 400 its ingest would give.
func TestSubmitAdmitsBeforeIngest(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	held := make(chan struct{}, 1)
	s.testHookAnalyze = func(*job) {
		held <- struct{}{}
		<-release
	}
	defer close(release)

	if rec, _ := post(t, s, testTrace(t, 1), ""); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", rec.Code, rec.Body.String())
	}
	<-held // the worker holds the first job
	if rec, _ := post(t, s, testTrace(t, 2), ""); rec.Code != http.StatusAccepted {
		t.Fatalf("second submit = %d: %s", rec.Code, rec.Body.String())
	}
	rec, _ := post(t, s, locksetFaultTrace(t), "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("faulty upload to a full queue = %d, want 429: %s", rec.Code, rec.Body.String())
	}
}
