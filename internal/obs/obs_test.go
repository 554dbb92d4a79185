package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Series("s") != r.Series("s") {
		t.Fatal("Series not idempotent")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reusing a counter name as a gauge")
		}
	}()
	r.Gauge("x")
}

func TestRegistryEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty name")
		}
	}()
	r.Counter("")
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Inc()
	c.Add(4)
	c.Add(-1)
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("rate")
	g.Set(1.5)
	g.Set(2.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestSeriesRecordsAndSnapshots(t *testing.T) {
	r := NewRegistry()
	s := r.Series("loss")
	s.Add(10*time.Millisecond, -2)
	s.Add(20*time.Millisecond, 0.1)
	if s.Len() != 2 || s.Last() != 0.1 {
		t.Fatalf("len=%d last=%v", s.Len(), s.Last())
	}
	snap := s.Snapshot()
	s.Add(30*time.Millisecond, 0.2)
	if snap.Len() != 2 {
		t.Fatalf("snapshot grew with the live series: len=%d", snap.Len())
	}
	if got := s.TimeSeries().Len(); got != 3 {
		t.Fatalf("backing series len=%d, want 3", got)
	}
}

func TestSnapshotFlattens(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.25)
	r.GaugeFunc("fn", func() float64 { return 42 })
	r.Series("s").Add(time.Second, 9)

	snap := r.Snapshot()
	want := map[string]float64{
		"c": 7, "g": 1.25, "fn": 42,
		"s.last": 9, "s.n": 1,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(snap), len(want), snap)
	}
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("q", func() float64 { return 1 })
	r.GaugeFunc("q", func() float64 { return 2 })
	if got := r.Snapshot()["q"]; got != 2 {
		t.Fatalf("replaced gauge func = %v, want 2", got)
	}
}

func TestWriteCSVColumnPairs(t *testing.T) {
	r := NewRegistry()
	a := r.Series("alpha")
	a.Add(time.Second, 1)
	a.Add(2*time.Second, 2)
	r.Series("beta").Add(time.Second, 5)

	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []string{"alpha_t", "alpha", "beta_t", "beta"}
	for i, h := range wantHeader {
		if rows[0][i] != h {
			t.Fatalf("header = %v, want %v", rows[0], wantHeader)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (header + 2 samples)", len(rows))
	}
	if rows[2][2] != "" || rows[2][3] != "" {
		t.Fatalf("short series should leave trailing cells empty, got %v", rows[2])
	}

	if err := r.WriteCSV(io.Discard, "missing"); err == nil {
		t.Fatal("expected error for unknown series name")
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Series("rate").Add(500*time.Millisecond, 128)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var vars map[string]float64
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if vars["hits"] != 3 {
		t.Fatalf("vars[hits] = %v, want 3", vars["hits"])
	}

	var series map[string][][2]float64
	if err := json.Unmarshal(get("/debug/series"), &series); err != nil {
		t.Fatalf("series not JSON: %v", err)
	}
	if got := series["rate"]; len(got) != 1 || got[0][0] != 0.5 || got[0][1] != 128 {
		t.Fatalf("series[rate] = %v", got)
	}

	if body := get("/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index missing goroutine profile")
	}
}
