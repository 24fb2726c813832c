// Package tableio moves stored tables in and out of the two interchange
// formats every downstream user expects: CSV (with type inference on
// import) and JSON lines. Atom values map naturally; set-valued fields
// round-trip through the expression-language notation (core rendering on
// export, xlang parsing on import), so even nested extended sets survive
// a CSV round trip.
package tableio

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

// ExportCSV writes the table as CSV: header row of column names, then
// one record per row. Atoms render bare (strings unquoted by the CSV
// layer itself); set values render in expression notation.
func ExportCSV(t *table.Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Cols); err != nil {
		return err
	}
	err := t.Scan(func(_ store.RID, r table.Row) (bool, error) {
		rec := make([]string, len(r))
		for i, v := range r {
			rec[i] = renderField(v)
		}
		return true, cw.Write(rec)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func renderField(v core.Value) string {
	switch x := v.(type) {
	case core.Str:
		return string(x)
	case *core.Set:
		return x.String()
	default:
		return v.String()
	}
}

// ImportCSV reads CSV into a fresh table in pool. The first record is
// the header (column names). Field values are inferred: integer, then
// float, then boolean, then set notation (leading '{' or '<'), then
// string.
func ImportCSV(pool *store.BufferPool, name string, r io.Reader) (*table.Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tableio: reading header: %w", err)
	}
	t, err := table.Create(pool, table.Schema{Name: name, Cols: header})
	if err != nil {
		return nil, err
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return t.Table(), nil
		}
		if err != nil {
			return nil, fmt.Errorf("tableio: line %d: %w", line, err)
		}
		row := make(table.Row, len(rec))
		for i, f := range rec {
			v, err := inferValue(f)
			if err != nil {
				return nil, fmt.Errorf("tableio: line %d column %q: %w", line, header[i], err)
			}
			row[i] = v
		}
		if _, err := t.Insert(row); err != nil {
			return nil, fmt.Errorf("tableio: line %d: %w", line, err)
		}
	}
}

func inferValue(f string) (core.Value, error) {
	if i, err := strconv.ParseInt(f, 10, 64); err == nil {
		return core.Int(i), nil
	}
	if fl, err := strconv.ParseFloat(f, 64); err == nil {
		return core.Float(fl), nil
	}
	switch f {
	case "true":
		return core.Bool(true), nil
	case "false":
		return core.Bool(false), nil
	}
	if strings.HasPrefix(f, "{") || strings.HasPrefix(f, "<") {
		v, err := xlang.Eval(xlang.NewEnv(), f)
		if err != nil {
			return nil, fmt.Errorf("parsing set notation: %w", err)
		}
		return v, nil
	}
	return core.Str(f), nil
}

// ExportJSON writes the table as JSON lines: one object per row keyed by
// column name. Atoms map to JSON scalars; set values map to their
// expression-notation strings.
func ExportJSON(t *table.Table, w io.Writer) error {
	enc := json.NewEncoder(w)
	cols := t.Schema().Cols
	return t.Scan(func(_ store.RID, r table.Row) (bool, error) {
		obj := make(map[string]any, len(r))
		for i, v := range r {
			obj[cols[i]] = jsonField(v)
		}
		return true, enc.Encode(obj)
	})
}

func jsonField(v core.Value) any {
	switch x := v.(type) {
	case core.Int:
		return int64(x)
	case core.Float:
		return float64(x)
	case core.Bool:
		return bool(x)
	case core.Str:
		return string(x)
	default:
		return v.String()
	}
}

// ImportJSON reads JSON lines into a fresh table. Every object must
// carry exactly the schema's columns; JSON numbers become Int when
// integral, Float otherwise; strings in set notation are parsed.
func ImportJSON(pool *store.BufferPool, schema table.Schema, r io.Reader) (*table.Table, error) {
	t, err := table.Create(pool, schema)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(r)
	dec.UseNumber()
	for line := 1; ; line++ {
		var obj map[string]any
		if err := dec.Decode(&obj); err == io.EOF {
			return t.Table(), nil
		} else if err != nil {
			return nil, fmt.Errorf("tableio: object %d: %w", line, err)
		}
		row := make(table.Row, schema.Arity())
		for i, col := range schema.Cols {
			raw, ok := obj[col]
			if !ok {
				return nil, fmt.Errorf("tableio: object %d missing column %q", line, col)
			}
			v, err := fromJSON(raw)
			if err != nil {
				return nil, fmt.Errorf("tableio: object %d column %q: %w", line, col, err)
			}
			row[i] = v
		}
		if _, err := t.Insert(row); err != nil {
			return nil, err
		}
	}
}

func fromJSON(raw any) (core.Value, error) {
	switch x := raw.(type) {
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return core.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return nil, err
		}
		return core.Float(f), nil
	case bool:
		return core.Bool(x), nil
	case string:
		if strings.HasPrefix(x, "{") || strings.HasPrefix(x, "<") {
			v, err := xlang.Eval(xlang.NewEnv(), x)
			if err == nil {
				return v, nil
			}
			// Fall back to the literal string on parse failure.
		}
		return core.Str(x), nil
	default:
		return nil, fmt.Errorf("unsupported JSON value %T", raw)
	}
}
