package sysview

import (
	"xst/internal/core"
	"xst/internal/metrics"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/trace"
)

// PoolRow is the __sys.bufferpool row of one pool reading: (frames,
// capacity, hits, misses, evictions, writes, recycled, pinned) — the
// same store.PoolInfo the xstd_pool_* gauges report, so the two agree
// by construction.
func PoolRow(in store.PoolInfo) table.Row {
	return table.Row{
		core.Int(int64(in.Frames)), core.Int(int64(in.Capacity)),
		core.Int(int64(in.Hits)), core.Int(int64(in.Misses)),
		core.Int(int64(in.Evictions)), core.Int(int64(in.Writes)),
		core.Int(int64(in.Recycled)), core.Int(int64(in.Pinned)),
	}
}

// MetricsRows flattens a registry snapshot into __sys.metrics rows:
// (name, kind, value), with histograms reporting their observation
// count — the same Value the registry's Prometheus exposition counts.
// The `.stats` and `.metrics` admin commands are this view.
func MetricsRows(snap []metrics.MetricSnapshot) []table.Row {
	out := make([]table.Row, 0, len(snap))
	for _, m := range snap {
		out = append(out, table.Row{core.Str(m.Name), core.Str(m.Kind), core.Int(m.Value)})
	}
	return out
}

// SlowRows projects the slow-query ring's span trees into __sys.slow
// rows: (stmt, dur_us, rows, dop, epoch). The statement is the root
// span's note; row counts come from the root or, when the root carries
// none, the exec span's "next" phase, which counts the rows streamed.
// The `.slow` admin command is this view.
func SlowRows(snaps []trace.SpanSnapshot) []table.Row {
	out := make([]table.Row, 0, len(snaps))
	for i := range snaps {
		s := &snaps[i]
		rows := s.Rows
		if rows == 0 {
			if e := s.Find("next"); e != nil {
				rows = e.Rows
			}
		}
		out = append(out, table.Row{
			core.Str(s.Note),
			core.Int(s.DurNS / 1e3),
			core.Int(rows),
			core.Int(int64(s.DOP)),
			core.Int(s.Epoch),
		})
	}
	return out
}
