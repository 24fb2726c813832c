package server

import (
	"encoding/base64"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/table"
)

// A .load chunk's rows decode through buffers the chunk reuses, so every
// decoded row must still hold its own values after the later rows have
// overwritten those buffers — rows longer and shorter than the one
// before, strings included.
func TestDecodeLoadRowsKeepsEveryRow(t *testing.T) {
	want := []table.Row{
		{core.Int(1), core.Str(strings.Repeat("long-", 20))},
		{core.Int(-2), core.Str("s")},
		{core.Int(300000), core.Str(strings.Repeat("x", 60))},
		{core.Float(2.5), core.Str("")},
	}
	b64s := make([]string, len(want))
	for i, r := range want {
		b64s[i] = base64.StdEncoding.EncodeToString(table.EncodeRow(nil, r))
	}
	got, err := decodeLoadRows(b64s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !core.Equal(got[i][c], want[i][c]) {
				t.Fatalf("row %d column %d = %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}

	// Bad base64 and a corrupt row fail the chunk.
	corrupt := base64.StdEncoding.EncodeToString([]byte{0x02, 0x09})
	for _, bad := range []string{"!!!", corrupt} {
		rows, err := decodeLoadRows([]string{b64s[0], bad, b64s[1]})
		if err == nil || !strings.HasPrefix(err.Error(), "bad .load row: ") || rows != nil {
			t.Fatalf("row %q: rows %v, err %v", bad, rows, err)
		}
	}

	// Decoding the base64 allocates nothing past the buffers' growth: a
	// 40-row chunk costs what its rows keep and the slice that holds them.
	var raws [][]byte
	var many []string
	for i := 0; i < 10; i++ {
		for _, r := range want {
			raws = append(raws, table.EncodeRow(nil, r))
		}
		many = append(many, b64s...)
	}
	keep := testing.AllocsPerRun(20, func() {
		for _, raw := range raws {
			if _, err := table.DecodeRow(raw); err != nil {
				t.Fatal(err)
			}
		}
	})
	chunk := testing.AllocsPerRun(20, func() {
		if _, err := decodeLoadRows(many); err != nil {
			t.Fatal(err)
		}
	})
	if chunk > keep+5 {
		t.Errorf("decoding a %d-row chunk: %.0f allocations, its rows keep %.0f (want at most 5 more: the slice and the buffers' growth)", len(many), chunk, keep)
	}
}
