package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"cafa/internal/service"
	"cafa/internal/service/api"
	"cafa/internal/service/client"
)

// rig is an in-process cafa-serve with its default configuration,
// listening on loopback.
type rig struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

func startRig() (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &rig{srv: service.New(service.Config{}), served: make(chan error, 1)}
	r.hs = &http.Server{Handler: r.srv}
	r.base = "http://" + ln.Addr().String()
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close stops the listener, drains the job manager, and waits for the
// serving goroutine to return.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, r.srv.Shutdown(ctx))
}

// submitter is one closed-loop client's upload sequence. Every fourth
// submission repeats, byte for byte, the client's submission from two
// turns earlier, which has always finished, as a CI re-run of a known
// trace would be.
type submitter struct {
	c       *client.Client
	uploads []input
	next    int // next distinct upload
	sent    []sent
}

type sent struct {
	up     *input
	report []byte
}

func newSubmitter(base string, uploads []input) *submitter {
	return &submitter{
		c:       &client.Client{Base: base, HTTP: &http.Client{Transport: &http.Transport{}}},
		uploads: uploads,
	}
}

// pick returns the next submission's upload and the index of the
// submission it repeats (-1 for a new upload), or nil once the
// distinct uploads are used up.
func (s *submitter) pick() (*input, int) {
	i := len(s.sent)
	if i%4 == 3 {
		return s.sent[i-2].up, i - 2
	}
	if s.next == len(s.uploads) {
		return nil, -1
	}
	s.next++
	return &s.uploads[s.next-1], -1
}

// roundTrip submits one upload, waits for the job, and fetches its
// report. span, when non-nil, wraps each of the three calls.
func (s *submitter) roundTrip(up *input, span func(string, func() error) error) (api.Job, []byte, error) {
	if span == nil {
		span = func(_ string, fn func() error) error { return fn() }
	}
	var j api.Job
	var rep []byte
	err := span("service.submit", func() (err error) {
		j, err = s.c.Submit(up.raw, up.name, "")
		return err
	})
	if err != nil {
		return j, nil, fmt.Errorf("%s: submit: %w", up.name, err)
	}
	if err := span("service.wait", func() (err error) {
		if !j.Terminal() {
			j, err = s.c.Wait(j.ID, 2*time.Minute)
		}
		return err
	}); err != nil {
		return j, nil, fmt.Errorf("%s: wait: %w", up.name, err)
	}
	if j.State != api.StateDone {
		return j, nil, fmt.Errorf("%s: job %s ended %s: %s", up.name, j.ID, j.State, j.Error)
	}
	if err := span("service.fetch", func() (err error) {
		rep, err = s.c.Report(j.ID)
		return err
	}); err != nil {
		return j, nil, fmt.Errorf("%s: fetch report: %w", up.name, err)
	}
	return j, rep, nil
}

// check verifies one finished submission: the race count, and for a
// repeat a cached answer identical to the first.
func (s *submitter) check(up *input, repeatOf int, j api.Job, rep []byte) error {
	if j.Races != up.races || reportedRaces(rep) != up.races {
		return fmt.Errorf("%s: job %s reports %d races (%d in its report), want %d",
			up.name, j.ID, j.Races, reportedRaces(rep), up.races)
	}
	if repeatOf < 0 {
		if j.Cached {
			return fmt.Errorf("%s: first submission answered from cache", up.name)
		}
		return nil
	}
	if !j.Cached {
		return fmt.Errorf("%s: repeated upload was analyzed again, not served from cache", up.name)
	}
	if !bytes.Equal(rep, s.sent[repeatOf].report) {
		return fmt.Errorf("%s: cached report differs from the first", up.name)
	}
	return nil
}

// op runs one submission round trip and checks it. ok is false once
// the distinct uploads are used up.
func (s *submitter) op(span func(string, func() error) error) (d time.Duration, up *input, cached bool, ok bool, err error) {
	up, repeatOf := s.pick()
	if up == nil {
		return 0, nil, false, false, nil
	}
	start := time.Now()
	j, rep, err := s.roundTrip(up, span)
	d = time.Since(start)
	if err == nil {
		err = s.check(up, repeatOf, j, rep)
	}
	// Keep only the reports a later repeat compares against, until it
	// has.
	if len(s.sent)%4 != 1 || err != nil {
		rep = nil
	}
	s.sent = append(s.sent, sent{up: up, report: rep})
	if repeatOf >= 0 {
		s.sent[repeatOf].report = nil
	}
	return d, up, j.Cached, true, err
}

func (s *submitter) close() { s.c.HTTP.CloseIdleConnections() }
