package hb

import (
	"slices"
	"sync"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// TestConventionalConcurrentQueries: eight goroutines query one
// conventional graph, each on its own columns that nothing projected
// before, so every query extends the projection concurrently with the
// others. The answers must equal a serial run's on a second graph.
func TestConventionalConcurrentQueries(t *testing.T) {
	spec, _ := apps.ByName("ZXing")
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	tr := col.T
	ps, err := Scan(tr)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Conventional: true}
	serial, err := BuildFromScan(ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := BuildFromScan(ps, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Deal the entries' backward-anchor columns round-robin to the
	// workers: a worker's entries name only its own columns.
	const workers = 8
	var mine [workers][]int
	for j := range tr.Entries {
		if v := serial.anchorBefore(tr.Entries[j].Task, j); v >= 0 {
			w := int(serial.ix.entryAt[v]) % workers
			if len(mine[w]) < 48 {
				mine[w] = append(mine[w], j)
			}
		}
	}
	// A worker asks Ordered and Explain into its entries from a fixed
	// sample of sources, and Concurrent among its own entries.
	var sources []int
	for i := 0; i < len(tr.Entries); i += len(tr.Entries)/32 + 1 {
		sources = append(sources, i)
	}
	type answer struct {
		ordered, concurrent bool
		path                []int
	}
	ask := func(g *Graph, js []int) []answer {
		var out []answer
		for k, j := range js {
			for _, i := range sources {
				out = append(out, answer{ordered: g.Ordered(i, j), path: g.Explain(i, j)})
			}
			out = append(out, answer{concurrent: g.Concurrent(js[(k+1)%len(js)], j)})
		}
		return out
	}
	var want [workers][]answer
	for w := range want {
		want[w] = ask(serial, mine[w])
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := ask(shared, mine[w])
			for k := range got {
				if got[k].ordered != want[w][k].ordered || got[k].concurrent != want[w][k].concurrent ||
					!slices.Equal(got[k].path, want[w][k].path) {
					t.Errorf("worker %d, query %d: got %+v, serial %+v", w, k, got[k], want[w][k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
