package xst_test

// The surface of the internal packages that the repository's benchmark
// (benchmarks/xstperf, a module of its own) compiles against, each
// symbol named with its exact signature. Nothing here runs: the file
// only has to compile, so a refactor that renames, removes or re-types
// one of these symbols fails `go test ./...` at the refactor itself,
// not later in the benchmark module. A symbol listed here may become a
// thin adapter over new machinery; what it may not do is change shape.

import (
	"context"
	"net"
	"time"

	"xst/internal/algebra"
	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/metrics"
	"xst/internal/plan"
	"xst/internal/process"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
	"xst/internal/workload"
	"xst/internal/xlang"
	"xst/internal/xsp"
)

// Functions and methods.
var (
	_ func(*core.Set) *core.Set                                                                = algebra.Domain1
	_ func(r, a *core.Set, sigma algebra.Sigma) *core.Set                                      = algebra.Image
	_ func(s1, s2 *core.Set) algebra.Sigma                                                     = algebra.NewSigma
	_ func(ps ...int) *core.Set                                                                = algebra.Positions
	_ func(f, g *core.Set, sigma, omega algebra.Sigma) *core.Set                               = algebra.RelativeProduct
	_ func(pairs ...[2]int) *core.Set                                                          = algebra.ScopeSet
	_ func(r, sigma *core.Set) *core.Set                                                       = algebra.SigmaDomain
	_ func() algebra.Sigma                                                                     = algebra.StdSigma
	_ func(*core.Set) *core.Set                                                                = algebra.TransitiveClosure
	_ func(store.Pager, int) (*catalog.Database, error)                                        = catalog.Create
	_ func(store.Pager, wal.Log, int) (*catalog.Database, error)                               = catalog.CreateDurable
	_ func(store.Pager, wal.Log, int) (*catalog.Database, int, error)                          = catalog.OpenDurable
	_ func(*catalog.Database, context.Context) (int, error)                                    = (*catalog.Database).Analyze
	_ func(*catalog.Database) catalog.ReadTxn                                                  = (*catalog.Database).BeginRead
	_ func(*catalog.Database, *xlang.Env) error                                                = (*catalog.Database).BindAll
	_ func(*catalog.Database) error                                                            = (*catalog.Database).Close
	_ func(*catalog.Database, context.Context, string, string, string) (*catalog.Index, error) = (*catalog.Database).CreateIndex
	_ func(*catalog.Database, table.Schema) (*table.Table, error)                              = (*catalog.Database).CreateTable
	_ func(*catalog.Database, string) []*catalog.Index                                         = (*catalog.Database).Indexes
	_ func(*catalog.Database, context.Context, string, []table.Row) error                      = (*catalog.Database).Load
	_ func(*catalog.Database) []string                                                         = (*catalog.Database).Names
	_ func(*catalog.Database) *store.View                                                      = (*catalog.Database).NewView
	_ func(*catalog.Database) *store.BufferPool                                                = (*catalog.Database).Pool
	_ func(*catalog.Database, int64)                                                           = (*catalog.Database).SetAutoCheckpoint
	_ func(*catalog.Database, string) (*table.Table, error)                                    = (*catalog.Database).Table
	_ func(*catalog.Database) *wal.Manager                                                     = (*catalog.Database).WAL
	_ func(*core.Set) int                                                                      = core.Card
	_ func(a, b *core.Set) *core.Set                                                           = core.Intersect
	_ func(core.Value) string                                                                  = core.Key
	_ func(int) *core.Builder                                                                  = core.NewBuilder
	_ func(core.Value) string                                                                  = core.OrderKey
	_ func(x, y core.Value) *core.Set                                                          = core.Pair
	_ func(xs ...core.Value) *core.Set                                                         = core.Tuple
	_ func(a, b *core.Set) *core.Set                                                           = core.Union
	_ func(*core.Builder, core.Value) *core.Builder                                            = (*core.Builder).AddClassical
	_ func(*core.Builder) *core.Set                                                            = (*core.Builder).Set
	_ func(*core.Set) int                                                                      = (*core.Set).Len
	_ func(context.Context, exec.Operator, func(rows []table.Row) error) error                 = exec.Stream
	_ func(exec.Operator, func(op exec.Operator, depth int))                                   = exec.Walk
	_ func(exec.Operator) []exec.Operator                                                      = exec.Operator.Children
	_ func(exec.Operator) exec.OpStats                                                         = exec.Operator.Stats
	_ func(*index.BTree, string, string, func(key string, rids []store.RID) bool)              = (*index.BTree).Range
	_ func(*index.HashIndex) int                                                               = (*index.HashIndex).Depth
	_ func(*index.HashIndex, string) []store.RID                                               = (*index.HashIndex).Lookup
	_ func(*metrics.Counter) uint64                                                            = (*metrics.Counter).Value
	_ func(*metrics.Histogram) uint64                                                          = (*metrics.Histogram).Count
	_ func(*metrics.Histogram) time.Duration                                                   = (*metrics.Histogram).Sum
	_ func(plan.Node) int                                                                      = plan.ChooseDOP
	_ func(plan.Node, int) (exec.Operator, error)                                              = plan.CompileDOP
	_ func(context.Context, plan.Node) ([]table.Row, table.Schema, error)                      = plan.ExecuteCtx
	_ func(plan.Node) string                                                                   = plan.Explain
	_ func(plan.Node, *plan.Catalog) plan.Node                                                 = plan.OptimizeCatalog
	_ func(g, f process.Proc) process.Proc                                                     = process.MustStdCompose
	_ func(*core.Set) process.Proc                                                             = process.Std
	_ func(string) (*server.Client, error)                                                     = server.Dial
	_ func(server.Config) (*server.Server, error)                                              = server.New
	_ func(string) server.Request                                                              = server.ParseRequest
	_ func(*server.Client) error                                                               = (*server.Client).Close
	_ func(*server.Client, server.Request) (server.Response, error)                            = (*server.Client).Do
	_ func(*server.Client, server.Request, func(rows []string) error) (server.Response, error) = (*server.Client).DoStream
	_ func(*server.Client, string) (string, error)                                             = (*server.Client).Eval
	_ func(*server.Server) *server.Metrics                                                     = (*server.Server).Metrics
	_ func(*server.Server) server.Snapshot                                                     = (*server.Server).MetricsSnapshot
	_ func(*server.Server, net.Listener) error                                                 = (*server.Server).Serve
	_ func(*server.Server, context.Context) error                                              = (*server.Server).Shutdown
	_ func() *store.MemPager                                                                   = store.NewMemPager
	_ func(string) (*store.FilePager, error)                                                   = store.OpenFilePager
	_ func(context.Context, *store.View) context.Context                                       = store.WithView
	_ func(*store.BufferPool, store.PageID) (*store.Frame, error)                              = (*store.BufferPool).Get
	_ func(*store.BufferPool) uint64                                                           = (*store.BufferPool).ReclaimedImages
	_ func(*store.BufferPool) int                                                              = (*store.BufferPool).SupersededImages
	_ func(*store.FilePager) error                                                             = (*store.FilePager).Close
	_ func(*store.Frame)                                                                       = (*store.Frame).Unpin
	_ func(*store.View)                                                                        = (*store.View).Release
	_ func(store.Pager) int                                                                    = store.Pager.NumPages
	_ func([]byte) (table.Row, error)                                                          = table.DecodeRow
	_ func([]byte, table.Row) []byte                                                           = table.EncodeRow
	_ func(table.Row) *core.Set                                                                = table.Row.Tuple
	_ func(*table.Table, *store.View) *table.Table                                             = (*table.Table).At
	_ func(*table.Table) int                                                                   = (*table.Table).Count
	_ func(*table.Table, store.RID) (table.Row, error)                                         = (*table.Table).Get
	_ func(*table.Table) ([]store.PageID, error)                                               = (*table.Table).PageIDs
	_ func(*table.Table, func(rid store.RID, r table.Row) (bool, error)) error                 = (*table.Table).Scan
	_ func(*table.Table, func(page store.PageID, rows []table.Row) (bool, error)) error        = (*table.Table).ScanBatches
	_ func(*table.Table) (*core.Set, error)                                                    = (*table.Table).ToXST
	_ func(string) (*wal.FileLog, error)                                                       = wal.OpenFileLog
	_ func(*wal.FileLog) error                                                                 = (*wal.FileLog).Close
	_ func(*wal.Manager) store.Pager                                                           = (*wal.Manager).Base
	_ func() table.Schema                                                                      = workload.EventsSchema
	_ func() table.Schema                                                                      = workload.OrdersSchema
	_ func() table.Schema                                                                      = workload.UsersSchema
	_ func(*xlang.Env, string) (*xlang.Query, error)                                           = xlang.CompileQuery
	_ func(context.Context, *xlang.Env, string) (core.Value, error)                            = xlang.EvalCtx
	_ func() *xlang.Env                                                                        = xlang.NewEnv
	_ func(*xlang.Env, string, core.Value)                                                     = (*xlang.Env).Bind
	_ func(*xlang.Env, func() *plan.Catalog)                                                   = (*xlang.Env).BindPlanCatalog
	_ func(*xlang.Env, string, *table.Table)                                                   = (*xlang.Env).BindTable
	_ func(*xlang.Query) int                                                                   = (*xlang.Query).DOP
)

// Variables, constants, and the types the benchmark implements
// interfaces with or type-switches on.
var (
	_ error           = server.ErrServerClosed
	_ string          = catalog.IndexBTree
	_ string          = catalog.IndexHash
	_ plan.CmpOp      = plan.Eq
	_ plan.CmpOp      = plan.Ge
	_ plan.CmpOp      = plan.Lt
	_ exec.AggKind    = xsp.Count
	_ exec.AggKind    = xsp.Sum
	_ core.Value      = core.Int(0)
	_ core.Value      = core.Str("")
	_ core.Value      = (*core.Set)(nil)
	_ store.Pager     = (*store.MemPager)(nil)
	_ store.Pager     = (*store.FilePager)(nil)
	_ wal.Log         = (*wal.FileLog)(nil)
	_ store.RID       = store.RID{}
	_ []exec.Operator = []exec.Operator{
		(*exec.Scan)(nil), (*exec.MorselScan)(nil), (*exec.IndexScan)(nil),
		(*exec.HashJoin)(nil), (*exec.HashBuild)(nil), (*exec.ProbeJoin)(nil),
		(*exec.GroupAgg)(nil), (*exec.ParallelGroupAgg)(nil), (*exec.Gather)(nil),
	}
	_ []plan.Node = []plan.Node{
		&plan.Scan{Table: (*table.Table)(nil)},
		&plan.Select{Child: nil, Pred: plan.And{plan.Cmp{Col: "", Op: plan.Eq, Val: core.Int(0)}}},
		&plan.Project{Cols: []string{}, Child: nil},
		&plan.Join{Left: nil, Right: nil, LeftCol: "", RightCol: ""},
		&plan.GroupBy{Child: nil, Key: "", Aggs: []plan.AggSpec{{Kind: xsp.Count, Col: ""}}},
	}
	_ = server.Config{DB: (*catalog.Database)(nil)}
	_ = server.Request{ID: uint64(0), Stmt: ""}
)

// Fields, read with their types.
func _(
	rt catalog.ReadTxn, ix catalog.Index, m *server.Metrics, snap server.Snapshot, pi store.PoolInfo,
	resp server.Response, q xlang.Query, st exec.OpStats, p process.Proc, sch table.Schema,
) {
	var (
		_ *plan.Catalog      = rt.Snap
		_ *store.View        = rt.View
		_ *index.BTree       = ix.BTree
		_ *index.HashIndex   = ix.Hash
		_ *metrics.Histogram = &m.CheckpointDur
		_ *metrics.Histogram = &m.WALFsync
		_ *metrics.Counter   = &m.TxnAbort
		_ *metrics.Counter   = &m.TxnBegin
		_ *metrics.Counter   = &m.TxnCommit
		_ *metrics.Counter   = &m.WALAppends
		_ *metrics.Counter   = &m.WALBytes
		_ uint64             = snap.BytesIn
		_ uint64             = snap.BytesOut
		_ uint64             = snap.ParallelQueries
		_ uint64             = snap.Rejected
		_ *store.PoolInfo    = snap.Pool
		_ uint64             = pi.Evictions
		_ uint64             = pi.Hits
		_ uint64             = pi.Misses
		_ uint64             = pi.Writes
		_ string             = resp.Error
		_ string             = resp.Result
		_ int                = resp.Rows
		_ plan.Node          = q.Node
		_ int                = st.HeldRows
		_ int64              = st.Ns
		_ int                = st.RowsIn
		_ *core.Set          = p.F
		_ string             = sch.Name
	)
}
