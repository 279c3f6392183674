package cafa

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"cafa/internal/apps"
	"cafa/internal/service"
	"cafa/internal/service/api"
	"cafa/internal/service/client"
)

// suiteTraceBytes encodes the ten-app suite to binary trace uploads.
func suiteTraceBytes(tb testing.TB) [][]byte {
	tb.Helper()
	traces := suiteTraces(tb)
	out := make([][]byte, len(traces))
	for i, tr := range traces {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestServeLoad is the service's concurrency proof and the source of
// the serve row in BENCH.json. Phase one uploads the ten distinct suite traces
// and waits for completion (all cache misses). Phase two fires 48
// concurrent duplicate submissions — every one must be served as a
// completed job straight from the result cache, and the hit counter
// must account for all of them. Phase three floods a deliberately
// tiny server (one worker, one queue slot) with concurrent distinct
// submissions and requires every call to resolve promptly as either
// an accepted job or a 429 — backpressure must never block the accept
// loop. Regenerate the baseline with
// `go test -run TestServeLoad -update-bench .`
func TestServeLoad(t *testing.T) {
	raws := suiteTraceBytes(t)
	svc := service.New(service.Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 64})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	c := client.New(ts.URL)

	// Phase 1: distinct submissions, all misses.
	t0 := time.Now()
	ids := make([]string, len(raws))
	for i, raw := range raws {
		j, err := c.Submit(raw, fmt.Sprintf("%s.trace", apps.Registry[i].Name), "")
		if err != nil {
			t.Fatal(err)
		}
		if j.Cached {
			t.Fatalf("first submission of trace %d reported cached", i)
		}
		ids[i] = j.ID
	}
	for _, id := range ids {
		j, err := c.Wait(id, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != api.StateDone {
			t.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}
	distinctWall := time.Since(t0)
	st := svc.CacheStats()
	if st.Misses != int64(len(raws)) || st.Entries != len(raws) {
		t.Fatalf("after distinct phase: cache = %+v", st)
	}

	// Phase 2: concurrent duplicates, all hits.
	const dupJobs = 48
	t0 = time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, dupJobs)
	for i := 0; i < dupJobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := c.Submit(raws[i%len(raws)], "dup.trace", "")
			if err != nil {
				errs <- fmt.Errorf("dup %d: %w", i, err)
				return
			}
			if !j.Cached || j.State != api.StateDone {
				errs <- fmt.Errorf("dup %d: not a completed cache hit: %+v", i, j)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	dupWall := time.Since(t0)
	st = svc.CacheStats()
	if st.Hits != dupJobs {
		t.Fatalf("cache hits = %d, want %d", st.Hits, dupJobs)
	}

	// Phase 3: backpressure. A one-worker, one-slot server under a
	// 32-way concurrent burst of distinct traces must answer every
	// submission promptly — accepted or 429, never blocked.
	tiny := service.New(service.Config{Workers: 1, QueueDepth: 1})
	tinySrv := httptest.NewServer(tiny)
	defer tinySrv.Close()
	tc := client.New(tinySrv.URL)

	const burst = 32
	type outcome struct {
		id       string
		rejected bool
	}
	outcomes := make(chan outcome, burst)
	burstErrs := make(chan error, burst)
	t0 = time.Now()
	var bwg sync.WaitGroup
	for i := 0; i < burst; i++ {
		bwg.Add(1)
		go func(i int) {
			defer bwg.Done()
			// Round-robin over the suite: phase-3 cache is empty, but
			// in-flight duplicates may still be misses — both accept
			// and reject are legal; blocking is not.
			j, err := tc.Submit(raws[i%len(raws)], "burst.trace", "")
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
					outcomes <- outcome{rejected: true}
					return
				}
				burstErrs <- fmt.Errorf("burst %d: %w", i, err)
				return
			}
			outcomes <- outcome{id: j.ID}
		}(i)
	}
	burstDone := make(chan struct{})
	go func() { bwg.Wait(); close(burstDone) }()
	select {
	case <-burstDone:
	case <-time.After(30 * time.Second):
		t.Fatal("burst submissions did not all return; a full queue blocked the accept loop")
	}
	burstWall := time.Since(t0)
	close(outcomes)
	close(burstErrs)
	for err := range burstErrs {
		t.Fatal(err)
	}
	accepted, rejected := 0, 0
	for o := range outcomes {
		if o.rejected {
			rejected++
			continue
		}
		accepted++
		if j, err := tc.Wait(o.id, time.Minute); err != nil || j.State != api.StateDone {
			t.Fatalf("accepted burst job %s: %+v, %v", o.id, j, err)
		}
	}
	if accepted+rejected != burst {
		t.Fatalf("accepted %d + rejected %d != %d", accepted, rejected, burst)
	}
	if accepted == 0 {
		t.Fatal("every burst submission was rejected; the worker never made progress")
	}
	t.Logf("distinct: %d jobs in %v; duplicates: %d hits in %v; burst: %d accepted, %d rejected in %v",
		len(raws), distinctWall, dupJobs, dupWall, accepted, rejected, burstWall)

	// distinct: submit and analyze the ten suite traces (benchScale,
	// seed 1); duplicate: concurrent cache-hit submissions; burst:
	// concurrent distinct submissions against the 1-worker/1-slot
	// server, accepted or answered 429.
	recordBench(t, runtime.GOMAXPROCS(0), benchRow{Name: "serve", Values: map[string]float64{
		"distinct_jobs":          float64(len(raws)),
		"distinct_wall_ns":       float64(distinctWall.Nanoseconds()),
		"duplicate_jobs":         dupJobs,
		"duplicate_wall_ns":      float64(dupWall.Nanoseconds()),
		"duplicate_hits_per_sec": dupJobs / dupWall.Seconds(),
		"burst_jobs":             burst,
		"burst_accepted":         float64(accepted),
		"burst_rejected":         float64(rejected),
		"burst_wall_ns":          float64(burstWall.Nanoseconds()),
	}})
}
