package service

import (
	"sync"

	"cafa/internal/analysis"
	"cafa/internal/service/api"
)

// job is one submission's lifecycle record. State mutations go
// through update so every change wakes long-poll and SSE watchers;
// reads go through snapshot, which hands out the api.Job wire form.
type job struct {
	mu sync.Mutex

	id     string
	name   string
	app    string
	sha    string
	cached bool

	state    string
	progress string
	errMsg   string

	// ingested holds the per-entry analysis between accept and the
	// worker's finish step; the worker drops it once artifacts exist
	// so finished jobs retain only their rendered outputs.
	ingested *analysis.Analyzer

	// art is the rendered result (owned by the cache on hits). The
	// confirm step stores its annotated evidence separately in
	// evidenceConfirmed — cache entries stay immutable.
	art               *artifacts
	evidenceConfirmed []byte

	confirm *api.Confirm

	// notify is closed and replaced on every update; watchers grab
	// the current channel, then re-snapshot when it closes.
	notify chan struct{}
}

func newJob(id, name, app, sha string) *job {
	return &job{
		id: id, name: name, app: app, sha: sha,
		state:  api.StateQueued,
		notify: make(chan struct{}),
	}
}

// update applies fn under the job lock and broadcasts the change.
func (j *job) update(fn func()) {
	j.mu.Lock()
	fn()
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// waitCh returns the channel closed at the next update. Grab it
// before snapshotting to avoid missing a transition.
func (j *job) waitCh() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notify
}

// snapshot renders the job's wire form.
func (j *job) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := api.Job{
		ID:       j.id,
		State:    j.state,
		Name:     j.name,
		App:      j.app,
		SHA256:   j.sha,
		Cached:   j.cached,
		Progress: j.progress,
		Error:    j.errMsg,
	}
	if j.art != nil {
		out.Races = len(j.art.Races)
	}
	if j.confirm != nil {
		c := *j.confirm
		c.Confirmations = append([]api.Confirmation(nil), j.confirm.Confirmations...)
		out.Confirm = &c
	}
	return out
}

// artifact returns the rendered artifacts if the job completed.
func (j *job) artifact() (*artifacts, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != api.StateDone || j.art == nil {
		return nil, false
	}
	return j.art, true
}

// evidenceBytes returns the served evidence: the confirm-annotated
// copy when present, the pristine artifact otherwise.
func (j *job) evidenceBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != api.StateDone || j.art == nil {
		return nil, false
	}
	if j.evidenceConfirmed != nil {
		return j.evidenceConfirmed, true
	}
	return j.art.Evidence, true
}
