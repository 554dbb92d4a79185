package stats

import (
	"bytes"
	"encoding/csv"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"
)

// flatSeries is the series as it was before chunking — one contiguous
// slice — kept here as the reference the chunked storage must agree with.
type flatSeries struct {
	name    string
	samples []Sample
}

func (f *flatSeries) after(t time.Duration) []Sample {
	i := sort.Search(len(f.samples), func(i int) bool { return f.samples[i].At >= t })
	return f.samples[i:]
}

func meanOfSamples(ss []Sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.Value
	}
	return sum / float64(len(ss))
}

func (f *flatSeries) between(lo, hi time.Duration) []Sample {
	var out []Sample
	for _, s := range f.samples {
		if s.At >= lo && s.At < hi {
			out = append(out, s)
		}
	}
	return out
}

// flatCSV is WriteCSV as it read the contiguous slices.
func flatCSV(w io.Writer, series ...*flatSeries) error {
	cw := csv.NewWriter(w)
	var header []string
	maxLen := 0
	for _, f := range series {
		header = append(header, f.name+"_t", f.name)
		if len(f.samples) > maxLen {
			maxLen = len(f.samples)
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 2*len(series))
	for i := 0; i < maxLen; i++ {
		for j, f := range series {
			row[2*j], row[2*j+1] = "", ""
			if i < len(f.samples) {
				s := f.samples[i]
				row[2*j] = strconv.FormatFloat(s.At.Seconds(), 'f', 6, 64)
				row[2*j+1] = strconv.FormatFloat(s.Value, 'g', 8, 64)
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// randomPair fills a chunked series and the flat reference with the same n
// samples at non-decreasing (sometimes equal) times.
func randomPair(rng *rand.Rand, name string, n int) (*TimeSeries, *flatSeries) {
	ts, flat := NewTimeSeries(name), &flatSeries{name: name}
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Duration(rng.Intn(3)) * time.Millisecond
		v := rng.NormFloat64() * 100
		ts.Add(at, v)
		flat.samples = append(flat.samples, Sample{At: at, Value: v})
	}
	return ts, flat
}

// seriesLengths straddle every chunk boundary case: empty, one sample, one
// short of a chunk, exactly one, one over, exactly two, and random sizes.
func seriesLengths(rng *rand.Rand) []int {
	ns := []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 2*chunkLen + 1}
	for i := 0; i < 20; i++ {
		ns = append(ns, rng.Intn(4*chunkLen))
	}
	return ns
}

// TestChunkedSeriesMatchesFlat: every reader of the chunked series returns
// bit-for-bit what the contiguous implementation did, whatever the length.
func TestChunkedSeriesMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range seriesLengths(rng) {
		ts, flat := randomPair(rng, "x", n)
		if ts.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, ts.Len())
		}
		for i, want := range flat.samples {
			if got := ts.Sample(i); got != want {
				t.Fatalf("n=%d: Sample(%d) = %+v, want %+v", n, i, got, want)
			}
		}
		vals := ts.Values()
		if len(vals) != n {
			t.Fatalf("n=%d: Values() has %d entries", n, len(vals))
		}
		for i, v := range vals {
			if v != flat.samples[i].Value {
				t.Fatalf("n=%d: Values()[%d] = %v, want %v", n, i, v, flat.samples[i].Value)
			}
		}
		wantLast := 0.0
		if n > 0 {
			wantLast = flat.samples[n-1].Value
		}
		if got := ts.Last(); got != wantLast {
			t.Errorf("n=%d: Last() = %v, want %v", n, got, wantLast)
		}
		if got, want := ts.Mean(), meanOfSamples(flat.samples); got != want {
			t.Errorf("n=%d: Mean() = %v, want %v", n, got, want)
		}
		end := time.Duration(0)
		if n > 0 {
			end = flat.samples[n-1].At
		}
		for q := 0; q < 25; q++ {
			lo := time.Duration(rng.Int63n(int64(end)+2)) - time.Millisecond
			hi := lo + time.Duration(rng.Int63n(int64(end)+2))
			after := flat.after(lo)
			if got := ts.Len() - ts.Search(lo); got != len(after) {
				t.Fatalf("n=%d: %d samples from Search(%v), want %d", n, got, lo, len(after))
			}
			if got, want := ts.MeanAfter(lo), meanOfSamples(after); got != want {
				t.Errorf("n=%d: MeanAfter(%v) = %v, want %v", n, lo, got, want)
			}
			tail := ts.ValuesAfter(lo)
			for i, s := range after {
				if tail[i] != s.Value {
					t.Fatalf("n=%d: ValuesAfter(%v)[%d] = %v, want %v", n, lo, i, tail[i], s.Value)
				}
			}
			if got, want := ts.MeanBetween(lo, hi), meanOfSamples(flat.between(lo, hi)); got != want {
				t.Errorf("n=%d: MeanBetween(%v, %v) = %v, want %v", n, lo, hi, got, want)
			}
		}
	}
}

// TestChunkedCSVMatchesFlat: the CSV export of series of unequal lengths is
// byte-identical to what the contiguous implementation wrote.
func TestChunkedCSVMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 10; round++ {
		var chunked []*TimeSeries
		var flats []*flatSeries
		for j, n := range []int{rng.Intn(3 * chunkLen), chunkLen, rng.Intn(chunkLen), 0} {
			ts, flat := randomPair(rng, "s"+strconv.Itoa(j), n)
			chunked, flats = append(chunked, ts), append(flats, flat)
		}
		var got, want bytes.Buffer
		if err := WriteCSV(&got, chunked...); err != nil {
			t.Fatal(err)
		}
		if err := flatCSV(&want, flats...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: chunked CSV (%d bytes) differs from flat CSV (%d bytes)", round, got.Len(), want.Len())
		}
	}
}

// TestSnapshotIsIndependent: a snapshot shares the full chunks but not the
// one being filled, so appends to either side never show through.
func TestSnapshotIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 7, 3 * chunkLen} {
		ts, flat := randomPair(rng, "x", n)
		snap := ts.Snapshot()
		for i := 0; i < chunkLen+3; i++ {
			ts.Add(time.Hour, -1)
			snap.Add(2*time.Hour, -2)
		}
		if snap.Len() != n+chunkLen+3 || ts.Len() != n+chunkLen+3 {
			t.Fatalf("n=%d: lengths %d / %d after appending to both", n, ts.Len(), snap.Len())
		}
		for i, want := range flat.samples {
			if ts.Sample(i) != want || snap.Sample(i) != want {
				t.Fatalf("n=%d: sample %d changed: series %+v, snapshot %+v, want %+v", n, i, ts.Sample(i), snap.Sample(i), want)
			}
		}
		for i := n; i < ts.Len(); i++ {
			if ts.Sample(i).Value != -1 || snap.Sample(i).Value != -2 {
				t.Fatalf("n=%d: appended sample %d leaked across: series %v, snapshot %v", n, i, ts.Sample(i).Value, snap.Sample(i).Value)
			}
		}
	}
}

// TestAddAllocatesOncePerChunk: an Add inside a chunk allocates nothing,
// and a long series costs one allocation per chunk plus the few regrowths
// of the chunk index (one pointer per chunk, doubling) — never a copy of
// the samples.
func TestAddAllocatesOncePerChunk(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Add(0, 0) // the chunk's own allocation
	if allocs := testing.AllocsPerRun(chunkLen-2, func() { ts.Add(time.Second, 1) }); allocs != 0 {
		t.Errorf("Add inside a chunk allocates %.2f/op, want 0", allocs)
	}

	const chunks = 64
	ts = NewTimeSeries("y")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < chunks*chunkLen; i++ {
		ts.Add(time.Duration(i), float64(i))
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.Mallocs-before.Mallocs, uint64(chunks+bits.Len(chunks)+1); got > limit {
		t.Errorf("filling %d chunks took %d allocations, want at most %d", chunks, got, limit)
	}
}
