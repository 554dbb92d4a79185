package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// Snapshot flattens every instrument into a name → value map, the shape
// runner.Output.Metrics and pelsbench's -json output already use.
// Counters and gauges map directly; pull gauges are evaluated now;
// histograms expand to <name>.count/.mean/.min/.max/.stddev; series
// contribute <name>.last and <name>.n (full samples go through WriteCSV or
// SeriesJSON, not the flat map).
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		gaugeFns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	series := make(map[string]*Series, len(r.series))
	for k, v := range r.series {
		series[k] = v
	}
	r.mu.Unlock()

	out := make(map[string]float64)
	for name, c := range counters {
		out[name] = float64(c.Value())
	}
	for name, g := range gauges {
		out[name] = g.Value()
	}
	for name, fn := range gaugeFns {
		out[name] = fn()
	}
	for name, h := range hists {
		w := h.Summary()
		out[name+".count"] = float64(w.N())
		out[name+".mean"] = w.Mean()
		out[name+".min"] = w.Min()
		out[name+".max"] = w.Max()
		out[name+".stddev"] = w.StdDev()
	}
	for name, s := range series {
		out[name+".last"] = s.Last()
		out[name+".n"] = float64(s.Len())
	}
	return out
}

// WriteJSON writes the flat snapshot as a single JSON object with sorted
// keys — the payload pelsd's /debug/vars endpoint serves.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("obs: write json snapshot: %w", err)
	}
	return nil
}

// SeriesNames returns the names of all registered series, sorted.
func (r *Registry) SeriesNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for name := range r.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteCSV writes the named series (all registered series when names is
// empty, in sorted-name order) in the aligned column-pair layout of
// stats.WriteCSV, so cmd/pelsplot can render any of them directly.
func (r *Registry) WriteCSV(w io.Writer, names ...string) error {
	if len(names) == 0 {
		names = r.SeriesNames()
	}
	cols := make([]*stats.TimeSeries, 0, len(names))
	for _, name := range names {
		r.mu.Lock()
		s, ok := r.series[name]
		r.mu.Unlock()
		if !ok {
			return fmt.Errorf("obs: no series %q", name)
		}
		cols = append(cols, s.Snapshot())
	}
	return stats.WriteCSV(w, cols...)
}

// SeriesJSON writes every registered series as one JSON object mapping
// name → [[seconds, value], ...] — the payload of pelsd's /debug/series.
func (r *Registry) SeriesJSON(w io.Writer) error {
	out := make(map[string][][2]float64)
	for _, name := range r.SeriesNames() {
		r.mu.Lock()
		s := r.series[name]
		r.mu.Unlock()
		snap := s.Snapshot()
		pairs := make([][2]float64, 0, snap.Len())
		for it := snap.Iter(0, snap.Len()); it.Next(); {
			smp := it.Sample()
			pairs = append(pairs, [2]float64{smp.At.Seconds(), smp.Value})
		}
		out[name] = pairs
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: write series json: %w", err)
	}
	return nil
}
