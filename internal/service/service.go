// Package service is the long-running half of CAFA: cafa-serve's job
// manager. It accepts trace uploads over HTTP, runs them through the
// existing analysis pipeline on a bounded worker pool behind a
// backpressured queue (submissions get 429, never a blocked accept
// loop), and serves the same three artifacts the batch CLI writes —
// JSON report, provenance evidence bundle, HTML triage — per job,
// byte-identical to `cafa-analyze` for the same trace and
// configuration (the rendering code is shared, internal/report).
//
// Results are keyed by content: SHA-256 of the uploaded trace bytes
// plus a fingerprint of the analysis configuration. The body is
// buffered so the key exists before any work: re-submitting a known
// trace is a cache hit that skips decoding and analysis entirely. On
// a miss the submit handler runs the one ingest sweep
// (analysis.Pipeline.Ingest: decode, validate, per-entry passes), so
// a malformed trace — including a lockset or hb fault — answers 400
// synchronously; the queued job only builds the causality models,
// detects and renders. A job that crashes the finish step fails
// alone (panic isolation per job); a job that runs too long is
// abandoned at the per-job timeout. POST /v1/jobs/{id}/confirm
// replays reported races adversarially (internal/replay against the
// matching internal/apps builder) and attaches Confirmation records
// to the job and its evidence bundle. Shutdown drains queued and
// in-flight jobs and persists their results before returning.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cafa/internal/analysis"
	"cafa/internal/obs"
	"cafa/internal/provenance"
	"cafa/internal/report"
	"cafa/internal/service/api"
	"cafa/internal/trace"
)

// Service observability: job lifecycle counters, queue/cache gauges.
// The same numbers are kept in plain fields (cache tallies, state
// counts) so behavior is assertable with obs disabled.
var (
	cJobsSubmitted = obs.NewCounter("serve_jobs_submitted_total")
	cJobsCompleted = obs.NewCounter("serve_jobs_completed_total")
	cJobsFailed    = obs.NewCounter("serve_jobs_failed_total")
	cJobsRejected  = obs.NewCounter("serve_jobs_rejected_total")
	cCacheHits     = obs.NewCounter("serve_cache_hits_total")
	cCacheMisses   = obs.NewCounter("serve_cache_misses_total")
	cConfirms      = obs.NewCounter("serve_confirm_requests_total")
	gQueueDepth    = obs.NewGauge("serve_queue_depth")
	gJobsQueued    = obs.NewGauge("serve_jobs_queued")
	gJobsRunning   = obs.NewGauge("serve_jobs_running")
	gJobsDone      = obs.NewGauge("serve_jobs_done")
	gJobsFailed    = obs.NewGauge("serve_jobs_failed")
	gCacheBytes    = obs.NewGauge("serve_cache_bytes")
	gCacheEntries  = obs.NewGauge("serve_cache_entries")
)

// Config tunes a Server. The zero value is usable; defaults fill in.
type Config struct {
	// Workers bounds concurrent analyses (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default
	// 64); submissions beyond it are rejected with 429.
	QueueDepth int
	// MaxBodyBytes bounds one trace upload (default 64 MiB); larger
	// requests are rejected with 413.
	MaxBodyBytes int64
	// JobTimeout abandons an analysis that runs longer (default 2m;
	// the job fails, the server lives on).
	JobTimeout time.Duration
	// CacheBytes is the result cache's artifact byte budget (default
	// 256 MiB).
	CacheBytes int64
	// ResultsDir, when set, persists every finished job's artifacts
	// under <dir>/<job-id>/ before the job is marked terminal — the
	// graceful-shutdown durability guarantee.
	ResultsDir string
	// ReplayScale divides app filler volume when rebuilding models
	// for confirm replays (default 100, as cafa-bench -validate).
	ReplayScale int
	// Analysis carries the pipeline configuration. Evidence is forced
	// on (the service always serves evidence bundles); job-level
	// concurrency is the pool's (Workers above).
	Analysis analysis.Options
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.ReplayScale <= 0 {
		c.ReplayScale = 100
	}
	c.Analysis.Evidence = true
}

// fingerprint renders the cache-relevant configuration: every switch
// that changes the served bytes, plus the evidence schema version so
// schema bumps invalidate stale entries. DerefSources is keyed by
// presence — the service runs one program configuration for its
// lifetime.
func fingerprint(o analysis.Options) string {
	return fmt.Sprintf("v1|bundle%d|ifguard=%t|intraalloc=%t|lockset=%t|dups=%t|naive=%t|derefs=%t",
		provenance.BundleVersion,
		!o.Detect.DisableIfGuard, !o.Detect.DisableIntraEventAlloc, !o.Detect.DisableLockset,
		o.Detect.KeepDuplicates, o.Naive, o.DerefSources != nil)
}

// Server is the job manager plus its HTTP surface (it implements
// http.Handler). New starts the worker pool; Shutdown drains it.
type Server struct {
	cfg      Config
	pipeline *analysis.Pipeline
	fp       string
	cache    *resultCache
	mux      *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	seq    int
	closed bool
	states map[string]int

	queue     chan *job
	workersWG sync.WaitGroup
	confirmWG sync.WaitGroup

	// testHookRunning, when set (tests only), is called by a worker
	// after a job transitions to running and before analysis starts —
	// the hook lets tests hold workers to fill the queue
	// deterministically. testHookAnalyze runs inside the panic-isolated
	// analysis goroutine, so tests can inject panics and stalls.
	testHookRunning func(*job)
	testHookAnalyze func(*job)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:      cfg,
		pipeline: analysis.New(cfg.Analysis),
		fp:       fingerprint(cfg.Analysis),
		cache:    newResultCache(cfg.CacheBytes),
		jobs:     make(map[string]*job),
		states:   make(map[string]int),
		queue:    make(chan *job, cfg.QueueDepth),
	}
	s.routes()
	s.workersWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Fingerprint exposes the configuration fingerprint (cache keying).
func (s *Server) Fingerprint() string { return s.fp }

// CacheStats exposes the result-cache tallies.
func (s *Server) CacheStats() api.CacheStats { return s.cache.stats() }

// Shutdown stops intake, drains queued and running jobs (their
// results are persisted by the workers before this returns), waits
// for in-flight confirm replays, and returns. The context bounds the
// wait; on expiry the error is returned with workers still running.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		s.confirmWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
}

// register files a new job under the server lock. It fails when
// intake is closed (shutting down).
func (s *Server) register(name, app, sha string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("shutting down")
	}
	s.seq++
	j := newJob(fmt.Sprintf("j%06d", s.seq), name, app, sha)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.states[api.StateQueued]++
	s.publishStateGauges()
	cJobsSubmitted.Inc()
	return j, nil
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// setState transitions a job and keeps the per-state tallies and
// gauges current. Extra mutations ride along under the job lock.
func (s *Server) setState(j *job, state string, extra func()) {
	j.update(func() {
		s.mu.Lock()
		s.states[j.state]--
		s.states[state]++
		s.publishStateGauges()
		s.mu.Unlock()
		j.state = state
		if extra != nil {
			extra()
		}
	})
}

// publishStateGauges mirrors the state tallies to obs. Caller holds
// s.mu.
func (s *Server) publishStateGauges() {
	gJobsQueued.Set(int64(s.states[api.StateQueued]))
	gJobsRunning.Set(int64(s.states[api.StateRunning]))
	gJobsDone.Set(int64(s.states[api.StateDone]))
	gJobsFailed.Set(int64(s.states[api.StateFailed]))
}

// stage publishes a job progress transition both to watchers and to
// the obs span stream: a zero-duration serve.stage marker span
// carrying the job id, so SSE consumers and the -trace-out timeline
// see the same lifecycle.
func (s *Server) stage(j *job, name string) {
	sp := obs.Start("serve.stage", obs.String("job", j.id), obs.String("stage", name))
	sp.End()
	j.update(func() { j.progress = name })
}

// worker drains the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for j := range s.queue {
		gQueueDepth.Set(int64(len(s.queue)))
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation and the per-job
// timeout. The analysis runs in a child goroutine; on timeout the job
// fails and the stray computation is abandoned (its result, sent to a
// buffered channel, is dropped — the goroutine cannot block).
func (s *Server) runJob(j *job) {
	s.setState(j, api.StateRunning, nil)
	if s.testHookRunning != nil {
		s.testHookRunning(j)
	}
	type outcome struct {
		art *artifacts
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("analysis panicked: %v", p)}
			}
		}()
		art, err := s.analyze(j)
		done <- outcome{art: art, err: err}
	}()
	timer := time.NewTimer(s.cfg.JobTimeout)
	defer timer.Stop()
	select {
	case o := <-done:
		if o.err != nil {
			s.failJob(j, o.err)
			return
		}
		s.cache.put(j.sha+"|"+s.fp, o.art)
		s.publishCacheGauges()
		s.persist(j, o.art)
		s.setState(j, api.StateDone, func() {
			j.art = o.art
			j.stream = nil
			j.progress = ""
		})
		cJobsCompleted.Inc()
	case <-timer.C:
		s.failJob(j, fmt.Errorf("job exceeded the %v timeout and was abandoned", s.cfg.JobTimeout))
	}
}

// failJob marks a job failed and persists the failure record.
func (s *Server) failJob(j *job, err error) {
	s.setState(j, api.StateFailed, func() {
		j.errMsg = err.Error()
		j.stream = nil
		j.progress = ""
	})
	cJobsFailed.Inc()
	s.persist(j, nil)
}

// analyze finishes the job's ingested analysis (causality models and
// detection) and renders all served artifacts. The root obs span
// carries the job id; the pipeline's pass spans nest under it.
func (s *Server) analyze(j *job) (*artifacts, error) {
	sp := obs.Start("serve.job", obs.String("job", j.id), obs.String("name", j.name))
	defer sp.End()
	if s.testHookAnalyze != nil {
		s.testHookAnalyze(j)
	}
	s.stage(j, "analyze")
	res, err := j.stream.FinishSpanned(sp)
	if err != nil {
		return nil, err
	}
	s.stage(j, "render")
	tr := res.Trace
	rep := &report.FileReport{File: j.name, Trace: tr, Result: res}
	art := &artifacts{Stats: res.Stats}
	var buf bytes.Buffer
	if err := report.RenderJSON(&buf, []*report.FileReport{rep}); err != nil {
		return nil, fmt.Errorf("render report: %w", err)
	}
	art.Report = append([]byte(nil), buf.Bytes()...)
	bundle := report.BuildBundle([]*report.FileReport{rep})
	buf.Reset()
	if err := bundle.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("render evidence: %w", err)
	}
	art.Evidence = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := provenance.WriteHTML(&buf, bundle); err != nil {
		return nil, fmt.Errorf("render triage: %w", err)
	}
	art.Triage = append([]byte(nil), buf.Bytes()...)
	for _, r := range res.Races {
		art.Races = append(art.Races, raceMeta{
			Site:      provenance.SiteString(tr, r.Key()),
			UseMethod: tr.MethodName(r.Use.Method),
		})
	}
	sp.SetAttr(obs.Int("races", len(art.Races)))
	return art, nil
}

// publishCacheGauges mirrors cache occupancy to obs.
func (s *Server) publishCacheGauges() {
	st := s.cache.stats()
	gCacheBytes.Set(st.Bytes)
	gCacheEntries.Set(int64(st.Entries))
}

// persist writes a finished job's artifacts (or its failure record)
// under ResultsDir/<job-id>/ before the job turns terminal, so a
// draining shutdown leaves every accepted job's outcome on disk.
func (s *Server) persist(j *job, art *artifacts) {
	if s.cfg.ResultsDir == "" {
		return
	}
	s.stage(j, "persist")
	dir := filepath.Join(s.cfg.ResultsDir, j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	if art != nil {
		_ = os.WriteFile(filepath.Join(dir, "report.json"), art.Report, 0o644)
		_ = os.WriteFile(filepath.Join(dir, "evidence.json"), art.Evidence, 0o644)
		_ = os.WriteFile(filepath.Join(dir, "triage.html"), art.Triage, 0o644)
	}
	snap := j.snapshot()
	// The snapshot runs before the terminal transition; record the
	// state the job is about to enter.
	if art != nil {
		snap.State = api.StateDone
		snap.Races = len(art.Races)
	} else {
		snap.State = api.StateFailed
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err == nil {
		_ = os.WriteFile(filepath.Join(dir, "job.json"), append(raw, '\n'), 0o644)
	}
}

// persistConfirm refreshes the persisted job record and evidence
// after a confirm run completes.
func (s *Server) persistConfirm(j *job) {
	if s.cfg.ResultsDir == "" {
		return
	}
	dir := filepath.Join(s.cfg.ResultsDir, j.id)
	snap := j.snapshot()
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err == nil {
		_ = os.WriteFile(filepath.Join(dir, "job.json"), append(raw, '\n'), 0o644)
	}
	if ev, ok := j.evidenceBytes(); ok {
		_ = os.WriteFile(filepath.Join(dir, "evidence.json"), ev, 0o644)
	}
}

// submit is the accept path: cache lookup by content, then one
// ingest sweep that decodes, validates and runs the per-entry
// analysis passes, then a non-blocking enqueue of the finish step. It
// returns the registered job and whether it was answered from the
// cache; errors carry an HTTP status.
func (s *Server) submit(raw []byte, name, app, sha string) (*job, bool, *httpError) {
	key := sha + "|" + s.fp
	if art, ok := s.cache.get(key); ok {
		cCacheHits.Inc()
		j, err := s.register(name, app, sha)
		if err != nil {
			return nil, false, &httpError{http.StatusServiceUnavailable, err.Error()}
		}
		s.setState(j, api.StateDone, func() {
			j.cached = true
			j.art = art
		})
		cJobsCompleted.Inc()
		s.persist(j, art)
		return j, true, nil
	}
	cCacheMisses.Inc()
	dec, err := trace.NewStreamDecoder(bytes.NewReader(raw))
	if err != nil {
		return nil, false, &httpError{http.StatusBadRequest, fmt.Sprintf("decode: %v", err)}
	}
	sa, err := s.pipeline.Ingest(dec, nil)
	if err != nil {
		phase := "trace validation"
		if errors.As(err, new(*trace.PosError)) {
			phase = "decode"
		}
		return nil, false, &httpError{http.StatusBadRequest, fmt.Sprintf("%s: %v", phase, err)}
	}
	j, rerr := s.register(name, app, sha)
	if rerr != nil {
		return nil, false, &httpError{http.StatusServiceUnavailable, rerr.Error()}
	}
	j.stream = sa
	select {
	case s.queue <- j:
		gQueueDepth.Set(int64(len(s.queue)))
		return j, false, nil
	default:
		// Queue full: reject without blocking. The job record is
		// withdrawn — a 429 submission never existed.
		s.withdraw(j)
		cJobsRejected.Inc()
		return nil, false, &httpError{http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued); retry later", s.cfg.QueueDepth)}
	}
}

// withdraw removes a just-registered job that could not be enqueued.
func (s *Server) withdraw(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.id)
	if n := len(s.order); n > 0 && s.order[n-1] == j.id {
		s.order = s.order[:n-1]
	}
	s.states[api.StateQueued]--
	s.publishStateGauges()
}

// statsSnapshot renders /v1/stats.
func (s *Server) statsSnapshot() api.Stats {
	s.mu.Lock()
	by := make(map[string]int, len(s.states))
	for k, v := range s.states {
		if v != 0 {
			by[k] = v
		}
	}
	s.mu.Unlock()
	return api.Stats{
		JobsByState: by,
		QueueDepth:  len(s.queue),
		QueueCap:    s.cfg.QueueDepth,
		Cache:       s.cache.stats(),
	}
}
