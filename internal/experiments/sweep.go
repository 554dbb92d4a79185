package experiments

import (
	"fmt"
	"strings"
	"time"
)

// A sweep is an experiment that is nothing but testbeds and their tail
// metrics: each run is one labelled tweak of the default testbed, every
// column is read from the finished testbed inside the run's fanOut job (so
// no testbed outlives its job), and one writer prints the table.
type sweep struct {
	// dur is each run's simulated time unless the geometry overrides it;
	// pels, if non-zero, is every run's PELS flow count before its tweak.
	dur  time.Duration
	pels int
	runs []tweak
	// rows are the printed lines; nil means one per run, reading flow 0.
	rows []row
	// head is printed on one line before the table, read from run 0.
	head []column
	// label is the printf verb of the row labels; labelName, if set, is
	// their header and turns the header line on.
	label, labelName string
	cols             []column
	// trace, if set, makes every run record its traces (RecordTraces) and
	// publish trace(tb) as an artifact; the last run's registry is then
	// the Result's Obs.
	trace func(tb *Testbed) Artifact
}

// tweak is one run of a sweep: a change to the default testbed.
type tweak struct {
	key string
	set func(*TestbedConfig)
}

// row is one printed line: the flow of one run whose columns it shows.
// Its metrics are reported as "<key>.<column>"; label (default key) is
// what it prints, and section, if set, a line printed before it.
type row struct {
	key, label, section string
	run, flow           int
}

// column is one metric of a finished testbed: value reads it for a flow
// (columns about the whole run ignore the flow), verb prints it ("" only
// reports it), and name is its metric key and its header.
type column struct {
	name  string
	verb  string
	value func(tb *Testbed, flow int) float64
}

// at runs the sweep at a geometry and publishes it as a registry Result.
func (s *sweep) at(g geometry) (Result, error) {
	head, vals, res, err := s.measure(g)
	if err != nil {
		return Result{}, err
	}
	res.Metrics = make(map[string]float64)
	for i, c := range s.head {
		res.Metrics[c.name] = head[i]
	}
	var b strings.Builder
	if len(s.head) > 0 {
		line(&b, "", s.head, head)
	}
	if s.labelName != "" {
		fmt.Fprintf(&b, s.label, s.labelName)
		for _, c := range s.cols {
			if c.verb != "" {
				fmt.Fprintf(&b, " "+headerVerb(c.verb), c.name)
			}
		}
		b.WriteByte('\n')
	}
	for r, rw := range s.allRows() {
		for i, c := range s.cols {
			res.Metrics[rw.key+"."+c.name] = vals[r][i]
		}
		if rw.section != "" {
			b.WriteString(rw.section + "\n")
		}
		label := rw.label
		if label == "" {
			label = rw.key
		}
		line(&b, fmt.Sprintf(s.label, label), s.cols, vals[r])
	}
	res.Output = b.String()
	return res, nil
}

// measure runs every tweak on fanOut and reads, inside each job, the head
// (run 0) and the columns of every row of that run. It returns them with
// a Result holding the events all runs processed and any traces.
func (s *sweep) measure(g geometry) (head []float64, vals [][]float64, res Result, err error) {
	rows := s.allRows()
	vals = make([][]float64, len(rows))
	runEvents := make([]uint64, len(s.runs))
	artifacts := make([]Artifact, len(s.runs))
	d := g.or(s.dur)
	err = fanOut(len(s.runs), func(i int) error {
		cfg := DefaultTestbedConfig()
		cfg.Seed = g.seed
		if s.pels > 0 {
			cfg.NumPELS = s.pels
		}
		s.runs[i].set(&cfg)
		tb, err := runTestbed(cfg, d, s.trace != nil)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", s.runs[i].key, err)
		}
		runEvents[i] = tb.Eng.Processed()
		if s.trace != nil {
			artifacts[i] = s.trace(tb)
			if i == len(s.runs)-1 {
				res.Obs = tb.Obs
			}
		}
		if i == 0 {
			head = read(s.head, tb, 0)
		}
		for r, rw := range rows {
			if rw.run == i {
				vals[r] = read(s.cols, tb, rw.flow)
			}
		}
		return nil
	})
	for _, n := range runEvents {
		res.Events += n
	}
	if s.trace != nil {
		res.Artifacts = artifacts
	}
	return head, vals, res, err
}

func (s *sweep) allRows() []row {
	if s.rows != nil {
		return s.rows
	}
	rows := make([]row, len(s.runs))
	for i, t := range s.runs {
		rows[i] = row{key: t.key, run: i}
	}
	return rows
}

func read(cols []column, tb *Testbed, flow int) []float64 {
	vals := make([]float64, len(cols))
	for i, c := range cols {
		vals[i] = c.value(tb, flow)
	}
	return vals
}

// line writes the label, if any, and every printed column, separated by
// single spaces, and ends the line.
func line(b *strings.Builder, label string, cols []column, vals []float64) {
	b.WriteString(label)
	sep := label != ""
	for i, c := range cols {
		if c.verb == "" {
			continue
		}
		if sep {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, c.verb, vals[i])
		sep = true
	}
	b.WriteByte('\n')
}

// headerVerb is the verb that prints a column's name in its value's width:
// "%-10.3f" becomes "%-10s".
func headerVerb(verb string) string {
	w := verb[:len(verb)-1]
	if i := strings.IndexByte(w, '.'); i >= 0 {
		w = w[:i]
	}
	return w + "s"
}
