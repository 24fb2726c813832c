package bench

import (
	"context"
	"fmt"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/process"
	"xst/internal/relational"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/workload"
)

// E8SetVsRecord measures the paper's central performance claim (§12,
// ref [4]): processing stored data as sets (page batches through
// composed operations) versus as records (one iterator Next per row).
// Selection and join are measured across table sizes; the expected shape
// is set processing winning by a growing factor as tables grow.
func E8SetVsRecord(cfg Config) Result {
	sizes := []int{2_000, 10_000, 50_000}
	reps := 5
	if cfg.Quick {
		sizes = []int{500, 2_000}
		reps = 2
	}
	pass := true
	var rows [][]string
	for _, n := range sizes {
		ds, err := workload.Build(workload.Spec{
			Seed: cfg.Seed, Users: n, Orders: 2 * n, Cities: 50,
		}, 512)
		if err != nil {
			return errResult("E8", err)
		}
		city := workload.SelectivityValue(50)
		cityCol := ds.Users.Schema().Col("city")

		var recSel, setSel int
		recSelT := timeIt(reps, func() {
			recSel, err = relational.Count(&relational.Filter{
				Child: relational.NewTableScan(ds.Users),
				Pred:  relational.ColEq(cityCol, city),
			})
		})
		if err != nil {
			return errResult("E8", err)
		}
		setSelT := timeIt(reps, func() {
			setSel, err = exec.Count(context.Background(), exec.NewStages(exec.NewScan(ds.Users, nil), &exec.Restrict{
				Pred: func(r table.Row) bool { return core.Equal(r[cityCol], city) },
				Name: "city",
			}))
		})
		if err != nil || recSel != setSel {
			return errResult("E8", fmt.Errorf("selection disagrees: %d vs %d (%v)", recSel, setSel, err))
		}

		var recJoin, setJoin int
		recJoinT := timeIt(reps, func() {
			recJoin, err = relational.Count(&relational.HashJoin{
				Left:    relational.NewTableScan(ds.Orders),
				Right:   relational.NewTableScan(ds.Users),
				LeftCol: ds.Orders.Schema().Col("uid"), RightCol: 0,
			})
		})
		if err != nil {
			return errResult("E8", err)
		}
		setJoinT := timeIt(reps, func() {
			setJoin, err = exec.Count(context.Background(), exec.NewHashJoin(
				exec.NewScan(ds.Orders, nil), exec.NewScan(ds.Users, nil),
				ds.Orders.Schema().Col("uid"), 0))
		})
		if err != nil || recJoin != setJoin {
			return errResult("E8", fmt.Errorf("join disagrees: %d vs %d (%v)", recJoin, setJoin, err))
		}

		rows = append(rows, []string{
			fmt.Sprintf("%d", n), "select",
			recSelT.String(), setSelT.String(), ratio(recSelT, setSelT),
		})
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), "join",
			recJoinT.String(), setJoinT.String(), ratio(recJoinT, setJoinT),
		})
		// Timing direction is asserted only at full scale; quick runs
		// are smoke tests where µs-level noise dominates.
		if !cfg.Quick && n == sizes[len(sizes)-1] && setSelT > recSelT {
			pass = false
		}
	}
	return Result{
		ID:    "E8",
		Title: "Set processing vs record processing (§12 / ref [4])",
		Lines: tableRows([]string{"rows", "query", "record-at-a-time", "set-at-a-time", "speedup"}, rows),
		Pass:  pass,
	}
}

// E9Composition measures Theorem 11.2 as an optimization: executing a
// k-stage process chain stage by stage (materializing every intermediate
// set) versus composing the chain into ONE carrier by relative products
// and applying it once. Both the symbolic level and the storage engine
// level are measured.
func E9Composition(cfg Config) Result {
	domain := 256
	inputs := 64
	ks := []int{2, 3, 4, 5}
	reps := 5
	if cfg.Quick {
		domain, inputs, ks, reps = 64, 16, []int{2, 3}, 2
	}
	pass := true
	var rows [][]string
	for _, k := range ks {
		carriers := workload.RandomChain(cfg.Seed, k, domain)
		stages := make([]process.Proc, k)
		for i, c := range carriers {
			stages[i] = process.Std(c)
		}
		in := core.NewBuilder(inputs)
		for i := 0; i < inputs; i++ {
			in.AddClassical(core.Tuple(core.Int(i * (domain / inputs))))
		}
		x := in.Set()

		var staged, composed *core.Set
		stagedT := timeIt(reps, func() {
			cur := x
			for _, s := range stages {
				cur = s.Apply(cur)
			}
			staged = cur
		})
		var h process.Proc
		buildT := timeIt(reps, func() {
			h = stages[0]
			for _, s := range stages[1:] {
				h = process.MustStdCompose(s, h)
			}
		})
		applyT := timeIt(reps, func() { composed = h.Apply(x) })
		if !core.Equal(staged, composed) {
			return errResult("E9", fmt.Errorf("k=%d: staged ≠ composed", k))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", k), stagedT.String(), buildT.String(), applyT.String(),
			ratio(stagedT, applyT),
		})
		if !cfg.Quick && k >= 3 && applyT > stagedT {
			pass = false
		}
	}

	// Engine level: staged materialization vs composed pipeline.
	n := 40_000
	if cfg.Quick {
		n = 2_000
	}
	ds, err := workload.Build(workload.Spec{Seed: cfg.Seed, Users: n, Orders: 1, Cities: 50}, 512)
	if err != nil {
		return errResult("E9", err)
	}
	scoreCol := ds.Users.Schema().Col("score")
	cityCol := ds.Users.Schema().Col("city")
	ops := func() []exec.Op {
		return []exec.Op{
			&exec.Restrict{Pred: func(r table.Row) bool {
				return core.Compare(r[scoreCol], core.Int(80)) < 0
			}, Name: "score<80"},
			&exec.Restrict{Pred: func(r table.Row) bool {
				return core.Compare(r[scoreCol], core.Int(20)) >= 0
			}, Name: "score>=20"},
			&exec.Restrict{Pred: func(r table.Row) bool {
				return !core.Equal(r[cityCol], core.Str("city-000"))
			}, Name: "city!=0"},
			&exec.Project{Cols: []int{0}},
		}
	}
	var stagedRows, composedRows int
	stagedT := timeIt(3, func() {
		out, err2 := runStaged(ds.Users, ops())
		if err2 != nil {
			err = err2
		}
		stagedRows = len(out)
	})
	if err != nil {
		return errResult("E9", err)
	}
	composedT := timeIt(3, func() {
		composedRows, err = exec.Count(context.Background(), exec.NewStages(exec.NewScan(ds.Users, nil), ops()...))
	})
	if err != nil || stagedRows != composedRows {
		return errResult("E9", fmt.Errorf("engine staged %d ≠ composed %d (%v)", stagedRows, composedRows, err))
	}
	lines := tableRows(
		[]string{"chain k", "staged apply", "compose build", "composed apply", "apply speedup"}, rows)
	lines = append(lines, "",
		fmt.Sprintf("engine (%d rows, 4 stages): staged %v vs composed %v (%s)",
			n, stagedT, composedT, ratio(stagedT, composedT)))
	if !cfg.Quick && composedT > stagedT {
		pass = false
	}
	return Result{
		ID:    "E9",
		Title: "Composition eliminates intermediates (§11, Thm 11.2)",
		Lines: lines,
		Pass:  pass,
	}
}

// E10Restructuring measures ref [4]'s trade-off: prestructured access
// (a prebuilt hash index probed per key) versus dynamic set
// restructuring (answering a whole batch of lookups with one
// set-at-a-time pass). The expected shape: per-key probing wins for tiny
// batches, one set pass wins as the batch grows, and the index only pays
// off if its build cost is amortized over many batches.
func E10Restructuring(cfg Config) Result {
	n := 50_000
	qs := []int{1, 10, 100, 1_000}
	if cfg.Quick {
		n = 3_000
		qs = []int{1, 10, 100}
	}
	ds, err := workload.Build(workload.Spec{Seed: cfg.Seed, Users: n / 5, Orders: n, Cities: 50}, 512)
	if err != nil {
		return errResult("E10", err)
	}
	uidCol := ds.Orders.Schema().Col("uid")

	// Prestructure: hash index over uid.
	var idx *index.HashIndex
	buildT := timeIt(1, func() {
		idx = index.NewHashIndex()
		err = ds.Orders.Scan(func(rid store.RID, r table.Row) (bool, error) {
			idx.Insert(core.Key(r[uidCol]), rid)
			return true, nil
		})
	})
	if err != nil {
		return errResult("E10", err)
	}

	pass := true
	var rows [][]string
	for _, q := range qs {
		keys := workload.LookupKeys(cfg.Seed^uint64(q), q, n/5, 0)
		// Deduplicate: a batch is a *set* of lookups, and the per-key
		// probe path must answer the same question as the set pass.
		dedup := map[string]core.Value{}
		for _, k := range keys {
			dedup[core.Key(k)] = k
		}
		keys = keys[:0]
		for _, k := range dedup {
			keys = append(keys, k)
		}

		// Per-key index probes (record fetch per rid).
		var probeHits int
		probeT := timeIt(3, func() {
			probeHits = 0
			for _, k := range keys {
				for _, rid := range idx.Lookup(core.Key(k)) {
					if _, err2 := ds.Orders.Get(rid); err2 != nil {
						err = err2
						return
					}
					probeHits++
				}
			}
		})
		if err != nil {
			return errResult("E10", err)
		}

		// Dynamic set pass: one restriction by the key set.
		keySet := make(map[string]bool, len(keys))
		for _, k := range keys {
			keySet[core.Key(k)] = true
		}
		var batchHits int
		batchT := timeIt(3, func() {
			batchHits, err = exec.Count(context.Background(), exec.NewStages(exec.NewScan(ds.Orders, nil), &exec.Restrict{
				Pred: func(r table.Row) bool { return keySet[core.Key(r[uidCol])] },
				Name: "uid∈keys",
			}))
		})
		if err != nil || probeHits != batchHits {
			return errResult("E10", fmt.Errorf("q=%d: probe %d ≠ batch %d (%v)", q, probeHits, batchHits, err))
		}

		rows = append(rows, []string{
			fmt.Sprintf("%d", q),
			probeT.String(),
			(buildT + probeT).String(),
			batchT.String(),
			fmt.Sprintf("%d", batchHits),
		})
		if !cfg.Quick && q == 1 && probeT > batchT {
			pass = false // a single probe must beat a full pass
		}
	}
	lines := tableRows(
		[]string{"batch size", "index probes", "build+probes", "one set pass", "rows"}, rows)
	lines = append(lines, "",
		fmt.Sprintf("index build over %d rows: %v (amortize across batches)", n, buildT))

	// Range-access variant: ordered prestructure (B+tree range scan)
	// versus one set pass with a range restriction.
	bt, err := relational.BuildBTreeIndex(ds.Orders, uidCol)
	if err != nil {
		return errResult("E10", err)
	}
	lo, hi := core.Int(int64(n/20)), core.Int(int64(n/10))
	var rangeRows int
	btT := timeIt(3, func() {
		rangeRows, err = relational.Count(&relational.IndexRangeScan{
			Table: ds.Orders, Index: bt, Lo: lo, Hi: hi,
		})
	})
	if err != nil {
		return errResult("E10", err)
	}
	var passRows int
	passT := timeIt(3, func() {
		passRows, err = exec.Count(context.Background(), exec.NewStages(exec.NewScan(ds.Orders, nil), &exec.Restrict{
			Pred: func(r table.Row) bool {
				return core.Compare(r[uidCol], lo) >= 0 && core.Compare(r[uidCol], hi) < 0
			},
			Name: "uid range",
		}))
	})
	if err != nil || rangeRows != passRows {
		return errResult("E10", fmt.Errorf("range: btree %d ≠ pass %d (%v)", rangeRows, passRows, err))
	}
	lines = append(lines,
		fmt.Sprintf("range [%v,%v): btree scan %v vs one set pass %v (%d rows)",
			lo, hi, btT, passT, rangeRows))
	return Result{
		ID:    "E10",
		Title: "Dynamic restructuring vs prestructured storage (ref [4])",
		Lines: lines,
		Pass:  pass,
	}
}

// runStaged executes the same stages the pre-composition way: each
// stage consumes the fully materialized output of the previous one.
// This is the baseline E9 compares the composed one-pass chain against.
func runStaged(src *table.Table, ops []exec.Op) ([]table.Row, error) {
	cur, err := exec.Collect(context.Background(), exec.NewScan(src, nil))
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		next := make([]table.Row, 0, len(cur))
		// Feed the materialized intermediate through in page-sized
		// chunks so operator scratch reuse stays comparable.
		const chunk = 256
		for i := 0; i < len(cur); i += chunk {
			end := i + chunk
			if end > len(cur) {
				end = len(cur)
			}
			out := op.Process(cur[i:end])
			for _, r := range out {
				next = append(next, r.Clone())
			}
		}
		cur = next
	}
	return cur, nil
}

func errResult(id string, err error) Result {
	return Result{ID: id, Title: "experiment failed", Lines: []string{err.Error()}, Pass: false}
}
