package synth

import (
	"testing"

	"cafa/internal/trace"
)

func TestTraceValidates(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Chain: 1, EventsPer: 1, FreeThreads: 1},
		{Chain: 4, EventsPer: 8, FreeThreads: 4},
		{Chain: 8, EventsPer: 32, FreeThreads: 8},
		{Chain: 4, EventsPer: 4, FreeThreads: 4, Burst: 6, BurstEvents: 16},
	} {
		tr := Trace(cfg)
		if err := tr.Validate(); err != nil {
			t.Errorf("Trace(%+v): invalid trace: %v", cfg, err)
		}
		if tr.EventCount() == 0 {
			t.Errorf("Trace(%+v): no events", cfg)
		}
	}
}

// ascendingTracer is a Collector that records every task declared at
// or below the ID declared before it.
type ascendingTracer struct {
	*trace.Collector
	last     trace.TaskID
	disorder []trace.TaskID
}

func (a *ascendingTracer) DeclareTask(ti trace.TaskInfo) {
	if ti.ID <= a.last {
		a.disorder = append(a.disorder, ti.ID)
	}
	a.last = ti.ID
	a.Collector.DeclareTask(ti)
}

// TestDeclaresTasksAscending: synthetic traces declare their tasks in
// strictly ascending ID order, so Trace.DeclareTask only ever appends.
func TestDeclaresTasksAscending(t *testing.T) {
	cfg := Config{Chain: 4, EventsPer: 4, FreeThreads: 4, Burst: 6, BurstEvents: 16}
	col := &ascendingTracer{Collector: trace.NewCollector()}
	emit(cfg, col)
	if len(col.T.Tasks) == 0 || len(col.disorder) > 0 {
		t.Errorf("%d tasks, declared out of order: %v", len(col.T.Tasks), col.disorder)
	}
}
