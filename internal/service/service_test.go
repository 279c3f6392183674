package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cafa/internal/apps"
	"cafa/internal/service/api"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// testTrace records one ZXing run at a small scale; distinct seeds
// yield distinct trace bytes (distinct cache keys).
func testTrace(t testing.TB, seed uint64) []byte {
	t.Helper()
	spec, ok := apps.ByName("ZXing")
	if !ok {
		t.Fatal("ZXing model missing")
	}
	col := trace.NewCollector()
	b, err := apps.Build(spec, sim.Config{Tracer: col, Seed: seed}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.T.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// post submits raw trace bytes over the HTTP surface.
func post(t testing.TB, s *Server, raw []byte, query string) (*httptest.ResponseRecorder, api.Job) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs"+query, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var j api.Job
	if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatalf("submit response: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, j
}

func get(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// waitDone long-polls one job to a settled state.
func waitDone(t testing.TB, s *Server, id string) api.Job {
	t.Helper()
	rec := get(t, s, "/v1/jobs/"+id+"?wait=30s")
	var j api.Job
	if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	if !j.Terminal() {
		t.Fatalf("job %s not terminal after wait: %s", id, j.State)
	}
	return j
}

func TestSubmitAnalyzeFetchArtifacts(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	raw := testTrace(t, 1)

	rec, j := post(t, s, raw, "?name=zxing.trace&app=ZXing")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	j = waitDone(t, s, j.ID)
	if j.State != api.StateDone || j.Races == 0 {
		t.Fatalf("job = %+v", j)
	}

	for path, wantType := range map[string]string{
		"/report":   "application/json",
		"/evidence": "application/json",
		"/triage":   "text/html; charset=utf-8",
	} {
		rec := get(t, s, "/v1/jobs/"+j.ID+path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != wantType {
			t.Fatalf("%s content-type = %q, want %q", path, ct, wantType)
		}
		if rec.Body.Len() == 0 {
			t.Fatalf("%s body empty", path)
		}
	}
	if rec := get(t, s, "/v1/jobs/nope/report"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job artifact = %d, want 404", rec.Code)
	}
}

func TestCachedResubmissionServesIdenticalBytes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// Cache keys carry this string; it may change only with what the
	// service serves.
	const wantFP = "v1|bundle1|ifguard=true|intraalloc=true|lockset=true|dups=false|naive=false|derefs=false"
	if fp := s.Fingerprint(); fp != wantFP {
		t.Fatalf("Fingerprint() = %q, want %q", fp, wantFP)
	}
	raw := testTrace(t, 1)
	_, j1 := post(t, s, raw, "")
	waitDone(t, s, j1.ID)
	rec, j2 := post(t, s, raw, "")
	if rec.Code != http.StatusOK || !j2.Cached || j2.State != api.StateDone {
		t.Fatalf("resubmit = %d, job = %+v", rec.Code, j2)
	}
	r1 := get(t, s, "/v1/jobs/"+j1.ID+"/report").Body.Bytes()
	r2 := get(t, s, "/v1/jobs/"+j2.ID+"/report").Body.Bytes()
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached job served different report bytes")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestSubmitRejectsGarbageAndEmpty(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if rec, _ := post(t, s, []byte("not a trace at all"), ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage = %d, want 400", rec.Code)
	}
	if rec, _ := post(t, s, nil, ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty = %d, want 400", rec.Code)
	}
	if rec, _ := post(t, s, bytes.Repeat([]byte("x"), 64), ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("junk = %d, want 400", rec.Code)
	}
}

func TestBodyLimit413(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 128})
	rec, _ := post(t, s, bytes.Repeat([]byte("y"), 4096), "")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", rec.Code)
	}
}

// entryOffset returns the byte offset at which entry k of tr starts in
// its binary encoding: the length of the encoding of its first k
// entries under the same tables. The entry count is a varint, so k
// must need as many bytes as len(tr.Entries) for the two to agree.
func entryOffset(t testing.TB, tr *trace.Trace, k int) int {
	t.Helper()
	pre := *tr
	pre.Entries = tr.Entries[:k]
	var buf bytes.Buffer
	if err := pre.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestBodyLimitInsideEntries cuts a valid binary trace inside its
// entry section: a body the limit cuts answers 413, and a body that
// simply ends mid-entry answers 400 naming the entry and its offset.
func TestBodyLimitInsideEntries(t *testing.T) {
	raw := testTrace(t, 1)
	tr, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	k := len(tr.Entries) / 2
	if k < 1<<7 || len(tr.Entries) >= 1<<14 {
		t.Fatalf("%d entries: entryOffset needs counts of the same varint width", len(tr.Entries))
	}
	start := entryOffset(t, tr, k)
	for _, limit := range []int{start, start + 1, start + 3} {
		s := newTestServer(t, Config{Workers: 1, MaxBodyBytes: int64(limit)})
		if rec, _ := post(t, s, raw, ""); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("limit=%d: status %d, want 413: %s", limit, rec.Code, rec.Body.String())
		}
	}
	// Cut one byte into entry k: the op byte is there, the task
	// varint's first byte is not.
	s := newTestServer(t, Config{Workers: 1})
	rec, _ := post(t, s, raw[:start+1], "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated: status %d, want 400", rec.Code)
	}
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("decode: trace: decode entry %d at byte %d: EOF", k, start); e.Error != want {
		t.Errorf("truncated: message %q, want %q", e.Error, want)
	}
}

// TestBackpressure429 holds the single worker, fills the one queue
// slot, and checks the next distinct submission bounces with 429
// without blocking — then that the held work still completes.
func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var once sync.Once
	running := make(chan struct{}, 8)
	s.testHookRunning = func(*job) {
		running <- struct{}{}
		<-release
	}
	defer once.Do(func() { close(release) })

	_, j1 := post(t, s, testTrace(t, 1), "") // grabbed by the worker
	<-running                                // worker is now held
	_, j2 := post(t, s, testTrace(t, 2), "") // fills the queue slot

	done := make(chan int)
	go func() {
		rec, _ := post(t, s, testTrace(t, 3), "")
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusTooManyRequests {
			t.Fatalf("third submit = %d, want 429", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submission blocked on a full queue; want an immediate 429")
	}

	// The rejected job must leave no record behind.
	var listed []api.Job
	if err := json.Unmarshal(get(t, s, "/v1/jobs").Body.Bytes(), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 {
		t.Fatalf("%d jobs listed after 429, want 2", len(listed))
	}

	once.Do(func() { close(release) })
	for _, id := range []string{j1.ID, j2.ID} {
		if j := waitDone(t, s, id); j.State != api.StateDone {
			t.Fatalf("job %s = %s after release: %s", id, j.State, j.Error)
		}
	}
}

// TestShutdownDrains verifies Shutdown finishes queued and running
// jobs and persists their artifacts before returning, and that intake
// answers 503 once draining.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueueDepth: 4, ResultsDir: dir})
	release := make(chan struct{})
	var once sync.Once
	running := make(chan struct{}, 8)
	s.testHookRunning = func(*job) {
		running <- struct{}{}
		<-release
	}
	_, j1 := post(t, s, testTrace(t, 1), "")
	<-running
	_, j2 := post(t, s, testTrace(t, 2), "") // queued behind the held worker

	shutDone := make(chan error)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	// Intake must close even while jobs drain.
	deadline := time.After(10 * time.Second)
	for {
		rec, _ := post(t, s, testTrace(t, 3), "")
		if rec.Code == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("intake still open during drain (last status %d)", rec.Code)
		case <-time.After(10 * time.Millisecond):
		}
	}
	once.Do(func() { close(release) })
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range []api.Job{j1, j2} {
		snap := waitDone(t, s, j.ID)
		if snap.State != api.StateDone {
			t.Fatalf("job %s drained to %s: %s", j.ID, snap.State, snap.Error)
		}
		for _, f := range []string{"report.json", "evidence.json", "triage.html", "job.json"} {
			p := filepath.Join(dir, j.ID, f)
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Fatalf("persisted %s: %v", p, err)
			}
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.testHookAnalyze = func(j *job) {
		if j.name == "boom" {
			panic("injected")
		}
	}
	_, bad := post(t, s, testTrace(t, 1), "?name=boom")
	j := waitDone(t, s, bad.ID)
	if j.State != api.StateFailed || !strings.Contains(j.Error, "panicked") {
		t.Fatalf("panicking job = %+v", j)
	}
	if rec := get(t, s, "/v1/jobs/"+bad.ID+"/report"); rec.Code != http.StatusGone {
		t.Fatalf("failed job artifact = %d, want 410", rec.Code)
	}
	// The worker that recovered must still serve the next job.
	_, good := post(t, s, testTrace(t, 2), "")
	if j := waitDone(t, s, good.ID); j.State != api.StateDone {
		t.Fatalf("job after panic = %+v", j)
	}
}

func TestJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	stall := make(chan struct{})
	s.testHookAnalyze = func(*job) { <-stall }
	defer close(stall)
	_, j := post(t, s, testTrace(t, 1), "")
	snap := waitDone(t, s, j.ID)
	if snap.State != api.StateFailed || !strings.Contains(snap.Error, "timeout") {
		t.Fatalf("stalled job = %+v", snap)
	}
}

func TestSSEStreamsUntilSettled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	_, j := post(t, s, testTrace(t, 1), "")
	waitDone(t, s, j.ID)
	rec := get(t, s, "/v1/jobs/"+j.ID+"/events")
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "event: state") || !strings.Contains(body, `"state":"done"`) {
		t.Fatalf("SSE body:\n%s", body)
	}
}

func TestConfirmAttachesRecords(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, ReplayScale: 32})
	raw := testTrace(t, 1)
	_, j := post(t, s, raw, "?app=ZXing")
	waitDone(t, s, j.ID)
	pristine := get(t, s, "/v1/jobs/"+j.ID+"/evidence").Body.Bytes()

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+j.ID+"/confirm", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("confirm = %d: %s", rec.Code, rec.Body.String())
	}
	snap := waitDone(t, s, j.ID)
	if snap.Confirm == nil || snap.Confirm.State != api.ConfirmDone {
		t.Fatalf("confirm = %+v", snap.Confirm)
	}
	if len(snap.Confirm.Confirmations) == 0 {
		t.Fatal("no races reproduced; the ZXing model plants reproducible NPEs")
	}
	annotated := get(t, s, "/v1/jobs/"+j.ID+"/evidence").Body.Bytes()
	if !bytes.Contains(annotated, []byte(`"confirmed"`)) {
		t.Fatal("evidence not annotated with confirmation records")
	}
	if bytes.Equal(annotated, pristine) {
		t.Fatal("evidence unchanged after confirm")
	}

	// Idempotent: a second confirm reports the finished run.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+j.ID+"/confirm", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("second confirm = %d, want 200", rec.Code)
	}

	// A cached duplicate of the same trace serves pristine evidence —
	// confirm annotations are job-local, not cache mutations.
	_, dup := post(t, s, raw, "?app=ZXing")
	dupEv := get(t, s, "/v1/jobs/"+dup.ID+"/evidence").Body.Bytes()
	if !bytes.Equal(dupEv, pristine) {
		t.Fatal("cache entry mutated by confirm annotation")
	}
}

func TestConfirmPreconditions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	var once sync.Once
	running := make(chan struct{}, 1)
	s.testHookRunning = func(*job) {
		running <- struct{}{}
		<-release
	}
	defer once.Do(func() { close(release) })
	_, j := post(t, s, testTrace(t, 1), "")
	<-running

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+j.ID+"/confirm?app=ZXing", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("confirm on running job = %d, want 409", rec.Code)
	}
	once.Do(func() { close(release) })
	waitDone(t, s, j.ID)

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+j.ID+"/confirm", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("confirm without app = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+j.ID+"/confirm?app=NoSuchApp", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("confirm with unknown app = %d, want 400", rec.Code)
	}
}
