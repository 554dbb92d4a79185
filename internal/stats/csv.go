package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes one or more time series as aligned CSV columns. Series
// are written row-by-row in sample order; shorter series leave trailing
// cells empty. The first column of each series pair is the sample time in
// seconds.
func WriteCSV(w io.Writer, series ...*TimeSeries) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, 2*len(series))
	its := make([]Iter, len(series))
	maxLen := 0
	for j, ts := range series {
		header = append(header, ts.Name+"_t", ts.Name)
		its[j] = ts.Iter(0, ts.Len())
		if ts.Len() > maxLen {
			maxLen = ts.Len()
		}
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("stats: write csv header: %w", err)
	}
	row := make([]string, 2*len(series))
	for i := 0; i < maxLen; i++ {
		for j := range its {
			if its[j].Next() {
				s := its[j].Sample()
				row[2*j] = strconv.FormatFloat(s.At.Seconds(), 'f', 6, 64)
				row[2*j+1] = strconv.FormatFloat(s.Value, 'g', 8, 64)
			} else {
				row[2*j], row[2*j+1] = "", ""
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("stats: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("stats: flush csv: %w", err)
	}
	return nil
}
