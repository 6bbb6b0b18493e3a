package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the dataset as CSV with a header row. Attribute columns
// come first, the class label (by name) last.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), d.AttrNames...), "class")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, d.NumAttrs()+1)
	for i := 0; i < d.NumTuples(); i++ {
		for a := range d.Cols {
			row[a] = strconv.FormatFloat(d.Cols[a][i], 'g', -1, 64)
		}
		row[d.NumAttrs()] = d.ClassNames[d.Labels[i]]
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset from CSV produced by WriteCSV (or any CSV
// whose last column is a categorical class and all other columns are
// numeric). Class names are assigned indices in order of first
// appearance.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w: %w", err, ErrMalformedCSV)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("need at least one attribute and a class column, got %d columns: %w", len(header), ErrMalformedCSV)
	}
	attrs := header[:len(header)-1]
	d := New(attrs, nil)
	classIdx := map[string]int{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w: %w", line, err, ErrMalformedCSV)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("line %d has %d fields, want %d: %w", line, len(rec), len(header), ErrMalformedCSV)
		}
		for a := 0; a < len(attrs); a++ {
			v, err := parseValue(rec[a])
			if err != nil {
				return nil, fmt.Errorf("line %d attribute %q: %w", line, attrs[a], err)
			}
			d.Cols[a] = append(d.Cols[a], v)
		}
		cls := rec[len(rec)-1]
		li, ok := classIdx[cls]
		if !ok {
			li = len(d.ClassNames)
			classIdx[cls] = li
			d.ClassNames = append(d.ClassNames, cls)
		}
		d.Labels = append(d.Labels, li)
	}
	return d, nil
}

// parseValue parses one attribute field of a CSV record. A field that
// is not a number fails with ErrMalformedCSV; "NaN" and "Inf" parse as
// floats but fail with ErrNonFiniteValue.
func parseValue(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", err, ErrMalformedCSV)
	}
	if !finite(v) {
		return 0, fmt.Errorf("%q: %w", field, ErrNonFiniteValue)
	}
	return v, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }
