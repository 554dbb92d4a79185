package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"io"
	"math"
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

func (f *flatSeries) add(at time.Duration, v float64) {
	f.samples = append(f.samples, Sample{At: at, Value: v})
}

func (f *flatSeries) search(t time.Duration) int {
	return sort.Search(len(f.samples), func(i int) bool { return f.samples[i].At >= t })
}

func (f *flatSeries) after(t time.Duration) []Sample { return f.samples[f.search(t):] }

// between is MeanBetween's window, [search(lo), search(hi)): the samples
// in [lo, hi) when times do not decrease.
func (f *flatSeries) between(lo, hi time.Duration) []Sample {
	i, j := f.search(lo), f.search(hi)
	if i >= j {
		return nil
	}
	return f.samples[i:j]
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

// sameBits compares floats bit for bit, so NaN matches the same NaN and
// -0 does not match 0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSample(a, b Sample) bool { return a.At == b.At && sameBits(a.Value, b.Value) }

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

// nextTime returns the time of the sample after one at prev. Mostly it is
// a step the simulator's clock gives — none, under a few milliseconds, or
// 30 ms ± 5 ms — and sometimes one Add accepts all the same: a step back, a
// gap of 2³² ns or more (past any 32-bit offset), or a jump to within a
// microsecond of either end of int64, from where the next step wraps.
func nextTime(rng *rand.Rand, prev time.Duration) time.Duration {
	switch r := rng.Intn(20); {
	case r < 3:
		return prev
	case r < 9:
		return prev + time.Duration(rng.Intn(3))*time.Millisecond
	case r < 15:
		return prev + 25*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
	case r < 17:
		return prev - time.Duration(rng.Int63n(int64(time.Second)))
	case r < 18:
		return prev + 1<<32 + time.Duration(rng.Int63n(1<<40))
	case r < 19:
		return math.MaxInt64 - time.Duration(rng.Intn(1000))
	default:
		return math.MinInt64 + time.Duration(rng.Intn(1000))
	}
}

// specialValues are the floats whose bits an arithmetic round trip could
// lose: two NaN payloads, both zeros, both infinities and the extremes.
var specialValues = []float64{
	math.NaN(), math.Float64frombits(0xfff8_0000_dead_beef), math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
}

func randomValue(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return specialValues[rng.Intn(len(specialValues))]
	}
	return rng.NormFloat64() * 100
}

// randomPair fills a chunked series and the flat reference with the same n
// samples (nextTime's times, randomValue's values).
func randomPair(rng *rand.Rand, name string, n int) (*TimeSeries, *flatSeries) {
	ts, flat := NewTimeSeries(name), &flatSeries{name: name}
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at = nextTime(rng, at)
		v := randomValue(rng)
		ts.Add(at, v)
		flat.add(at, v)
	}
	return ts, flat
}

// seriesLengths straddle every checkpoint and chunk boundary case: empty,
// one sample, around the first checkpoint, one short of a chunk, exactly
// one, one over, exactly two, and random sizes.
func seriesLengths(rng *rand.Rand) []int {
	ns := []int{0, 1, 2, markEvery - 1, markEvery, markEvery + 1, chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 2*chunkLen + 1}
	for i := 0; i < 20; i++ {
		ns = append(ns, rng.Intn(4*chunkLen))
	}
	return ns
}

// queryTime is a time to search for: near a sample's time, an end of
// int64, or anywhere.
func queryTime(rng *rand.Rand, samples []Sample) time.Duration {
	switch r := rng.Intn(8); {
	case len(samples) > 0 && r < 5:
		return samples[rng.Intn(len(samples))].At + time.Duration(rng.Intn(3)-1)
	case r == 5:
		return math.MinInt64
	case r == 6:
		return math.MaxInt64
	default:
		return time.Duration(rng.Uint64())
	}
}

// checkMatchesFlat fails t unless every reader of ts returns bit for bit
// what the flat reference does, for queries drawn from rng.
func checkMatchesFlat(t *testing.T, label string, ts *TimeSeries, flat *flatSeries, rng *rand.Rand) {
	t.Helper()
	n := len(flat.samples)
	if ts.Len() != n {
		t.Fatalf("%s: Len() = %d, want %d", label, ts.Len(), n)
	}
	for i, want := range flat.samples {
		if got := ts.Sample(i); !sameSample(got, want) {
			t.Fatalf("%s: Sample(%d) = %+v, want %+v", label, i, got, want)
		}
	}
	checkIter(t, label, ts, flat, 0, n)
	for q := 0; q < 10 && n > 0; q++ {
		i := rng.Intn(n + 1)
		checkIter(t, label, ts, flat, i, i+rng.Intn(n-i+1))
	}
	checkValues(t, label+": Values()", ts.Values(), flat.samples)
	wantLast := 0.0
	if n > 0 {
		wantLast = flat.samples[n-1].Value
	}
	if got := ts.Last(); !sameBits(got, wantLast) {
		t.Errorf("%s: Last() = %v, want %v", label, got, wantLast)
	}
	if got, want := ts.Mean(), meanOfSamples(flat.samples); !sameBits(got, want) {
		t.Errorf("%s: Mean() = %v, want %v", label, got, want)
	}
	for q := 0; q < 25; q++ {
		lo, hi := queryTime(rng, flat.samples), queryTime(rng, flat.samples)
		if got, want := ts.Search(lo), flat.search(lo); got != want {
			t.Fatalf("%s: Search(%d) = %d, want %d", label, lo, got, want)
		}
		after := flat.after(lo)
		if got, want := ts.MeanAfter(lo), meanOfSamples(after); !sameBits(got, want) {
			t.Errorf("%s: MeanAfter(%d) = %v, want %v", label, lo, got, want)
		}
		checkValues(t, label+": ValuesAfter", ts.ValuesAfter(lo), after)
		if got, want := ts.MeanBetween(lo, hi), meanOfSamples(flat.between(lo, hi)); !sameBits(got, want) {
			t.Errorf("%s: MeanBetween(%d, %d) = %v, want %v", label, lo, hi, got, want)
		}
	}
}

func checkIter(t *testing.T, label string, ts *TimeSeries, flat *flatSeries, i, j int) {
	t.Helper()
	it := ts.Iter(i, j)
	for k := i; k < j; k++ {
		if !it.Next() {
			t.Fatalf("%s: Iter(%d, %d) ended before sample %d", label, i, j, k)
		}
		if got, want := it.Sample(), flat.samples[k]; !sameSample(got, want) {
			t.Fatalf("%s: Iter(%d, %d) sample %d = %+v, want %+v", label, i, j, k, got, want)
		}
	}
	if it.Next() {
		t.Fatalf("%s: Iter(%d, %d) ran past its end", label, i, j)
	}
}

func checkValues(t *testing.T, label string, got []float64, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i, s := range want {
		if !sameBits(got[i], s.Value) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], s.Value)
		}
	}
}

// TestChunkedSeriesMatchesFlat: every reader of the chunked series returns
// bit-for-bit what the contiguous implementation did, whatever the length,
// the order and spacing of the times, or the values.
func TestChunkedSeriesMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range seriesLengths(rng) {
		ts, flat := randomPair(rng, "x", n)
		checkMatchesFlat(t, "n="+strconv.Itoa(n), ts, flat, rng)
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
			if !sameSample(ts.Sample(i), want) || !sameSample(snap.Sample(i), want) {
				t.Fatalf("n=%d: sample %d changed: series %+v, snapshot %+v, want %+v", n, i, ts.Sample(i), snap.Sample(i), want)
			}
		}
		for i := n; i < ts.Len(); i++ {
			if ts.Sample(i) != (Sample{time.Hour, -1}) || snap.Sample(i) != (Sample{2 * time.Hour, -2}) {
				t.Fatalf("n=%d: appended sample %d leaked across: series %+v, snapshot %+v", n, i, ts.Sample(i), snap.Sample(i))
			}
		}
	}
}

// allocatedBytes returns the heap bytes fn allocates, garbage included.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSeriesBytesPerSample pins the cost of the layout. A series of 10⁵
// samples 30 ms ± 5 ms apart — a feedback series — costs at most 12.5 bytes
// a sample, everything it allocated counted: the 8-byte value, a 4-byte
// time delta and the chunks' checkpoints and index. A one-sample series is
// no larger than the layout of 16-byte samples in 8-KiB chunks made it
// (48-byte header, 8-byte chunk index, one chunk). An Add inside a chunk
// allocates nothing.
func TestSeriesBytesPerSample(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Add(0, 0) // the chunk's own allocations
	if allocs := testing.AllocsPerRun(chunkLen-2, func() { ts.Add(time.Second, 1) }); allocs != 0 {
		t.Errorf("Add inside a chunk allocates %.2f/op, want 0", allocs)
	}

	var one *TimeSeries
	if got, limit := allocatedBytes(func() {
		one = NewTimeSeries("one")
		one.Add(time.Second, 1)
	}), uint64(48+8+8192); got > limit {
		t.Errorf("a one-sample series allocated %d B, want at most %d", got, limit)
	}
	runtime.KeepAlive(one)

	const n = 100_000
	rng := rand.New(rand.NewSource(17))
	var long *TimeSeries
	got := allocatedBytes(func() {
		long = NewTimeSeries("rate")
		at := time.Duration(0)
		for i := 0; i < n; i++ {
			at += 25*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
			long.Add(at, float64(i))
		}
	})
	runtime.KeepAlive(long)
	if perSample := float64(got) / n; perSample > 12.5 {
		t.Errorf("%d samples 30 ms ± 5 ms apart allocated %d B, %.2f B a sample, want at most 12.5", n, got, perSample)
	} else {
		t.Logf("%d samples: %.2f B a sample", n, perSample)
	}
}

// FuzzTimeSeries drives the flat-reference comparison from arbitrary input.
// Each sample takes one control byte and, where it asks, eight more: the
// low three bits pick the time step (none, small, 30 ms, back, a 2³² ns gap,
// absolute from the next eight bytes), the next two the value (small
// integer, special, raw bits from the next eight bytes), and the top three
// repeat the sample up to 128 times, so a short input spans chunks. After
// the comparison a snapshot and the series each get extra samples of their
// own, and neither may see the other's.
func FuzzTimeSeries(f *testing.F) {
	f.Add([]byte{0x01, 0x22, 0xe2, 0x0b, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(5), int64(1))
	f.Add([]byte{0xe2, 0xe1, 0xe4, 0x05, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xc3}, uint16(600), int64(2))
	f.Add([]byte{0x1d, 0x80, 0, 0, 0, 0, 0, 0, 0, 0xfa, 0xf8, 0, 0, 0, 0, 0, 0, 1}, uint16(0), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, extra uint16, seed int64) {
		word := func() uint64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return binary.BigEndian.Uint64(b[:])
		}
		ts, flat := NewTimeSeries("f"), &flatSeries{name: "f"}
		at := time.Duration(0)
		for len(data) > 0 && ts.Len() < 2*chunkLen+markEvery {
			ctl := data[0]
			data = data[1:]
			var v float64
			switch (ctl >> 3) & 3 {
			case 0:
				v = float64(ctl)
			case 1:
				v = specialValues[ctl%uint8(len(specialValues))]
			default:
				v = math.Float64frombits(word())
			}
			var step, abs time.Duration
			switch ctl & 7 {
			case 1:
				step = time.Duration(ctl)
			case 2:
				step = 30 * time.Millisecond
			case 3:
				step = -time.Second
			case 4:
				step = 1<<32 + 1
			case 5:
				abs = time.Duration(word())
			}
			for rep := 1 << (ctl >> 5); rep > 0; rep-- {
				if ctl&7 == 5 {
					at = abs
				} else {
					at += step
				}
				ts.Add(at, v)
				flat.add(at, v)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		checkMatchesFlat(t, "series", ts, flat, rng)

		snap := ts.Snapshot()
		snapFlat := &flatSeries{name: "f", samples: append([]Sample(nil), flat.samples...)}
		for i := 0; i < int(extra)%(chunkLen+markEvery+2); i++ {
			ts.Add(at+time.Duration(i), -1)
			flat.add(at+time.Duration(i), -1)
			snap.Add(at-time.Duration(i), -2)
			snapFlat.add(at-time.Duration(i), -2)
		}
		checkMatchesFlat(t, "series after snapshot", ts, flat, rng)
		checkMatchesFlat(t, "snapshot", snap, snapFlat, rng)
	})
}
