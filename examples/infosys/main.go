// Infosys is the end-to-end integration example: a small information
// system of the kind the 1977 paper models — durable storage with a
// catalog, bulk CSV ingest, index and planner-optimized queries, and
// JSON export — all running on the extended-set substrate. Run it with:
//
//	go run ./examples/infosys
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/relational"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/tableio"
	"xst/internal/xlang"
)

const peopleCSV = `pid,name,city,skills
1,ada,ann-arbor,"{""math"", ""cs""}"
2,bob,boston,"{""ops""}"
3,cya,ann-arbor,"{""cs"", ""db""}"
4,dee,chicago,"{""db""}"
`

const tasksCSV = `tid,owner,topic,hours
100,1,proofs,12
101,3,queries,8
102,3,storage,21
103,2,deploy,5
104,4,queries,13
`

func main() {
	dir, err := os.MkdirTemp("", "xst-infosys")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "infosys.pages")

	// --- 1. Durable database + CSV ingest -------------------------------
	pager, err := store.OpenFilePager(dbPath)
	if err != nil {
		panic(err)
	}
	db, err := catalog.Create(pager, 256)
	if err != nil {
		panic(err)
	}
	staging := store.NewBufferPool(store.NewMemPager(), 64)
	imported, err := tableio.ImportCSV(staging, "people", strings.NewReader(peopleCSV))
	if err != nil {
		panic(err)
	}
	people := load(db, imported)
	importedTasks, err := tableio.ImportCSV(staging, "tasks", strings.NewReader(tasksCSV))
	if err != nil {
		panic(err)
	}
	tasks := load(db, importedTasks)
	if err := db.Sync(); err != nil {
		panic(err)
	}
	fmt.Printf("ingested: %d people, %d tasks into %s\n", people.Count(), tasks.Count(), dbPath)

	// --- 2. Reopen from disk: the catalog restores everything -----------
	if err := db.Close(); err != nil {
		panic(err)
	}
	pager2, err := store.OpenFilePager(dbPath)
	if err != nil {
		panic(err)
	}
	db2, err := catalog.Open(pager2, 256)
	if err != nil {
		panic(err)
	}
	defer db2.Close()
	fmt.Println("reopened tables:", db2.Names())
	people, _ = db2.Table("people")
	tasks, _ = db2.Table("tasks")

	// --- 3. Planner-optimized query -------------------------------------
	// Who in ann-arbor works on queries, and for how many hours?
	q := &plan.Project{
		Cols: []string{"name", "hours"},
		Child: &plan.Select{
			Child: &plan.Join{
				Left:    &plan.Scan{Table: tasks},
				Right:   &plan.Scan{Table: people},
				LeftCol: "owner", RightCol: "pid",
			},
			Pred: plan.And{
				plan.Cmp{Col: "topic", Op: plan.Eq, Val: core.Str("queries")},
				plan.Cmp{Col: "city", Op: plan.Eq, Val: core.Str("ann-arbor")},
			},
		},
	}
	fmt.Println("\nlogical plan:   ", q)
	opt := plan.OptimizeCatalog(q, nil)
	fmt.Println("optimized plan: ", opt)
	rows, _, err := plan.Execute(opt)
	if err != nil {
		panic(err)
	}
	fmt.Println("result:")
	for _, r := range rows {
		fmt.Printf("  %v worked %v hours on queries\n", r[0], r[1])
	}

	// --- 4. Set-level query over nested fields ---------------------------
	dbSkilled, err := exec.Count(context.Background(), exec.NewStage(&exec.Restrict{
		Filter: func(b *table.Batch, sel []int32) []int32 {
			skills, k := &b.Cols[3], 0
			for _, r := range sel {
				if s, ok := skills.Value(int(r)).(*core.Set); ok && s.HasClassical(core.Str("db")) {
					sel[k], k = r, k+1
				}
			}
			return sel[:k]
		},
		Name: "db ∈ skills",
	}, exec.NewScan(people, nil)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\npeople with the db skill (nested-set query): %d\n", dbSkilled)

	// --- 5. Index point access ------------------------------------------
	idx, err := relational.BuildHashIndex(people, people.Schema().Col("city"))
	if err != nil {
		panic(err)
	}
	n, err := relational.Count(&relational.IndexScan{Table: people, Index: idx, Key: core.Str("ann-arbor")})
	if err != nil {
		panic(err)
	}
	fmt.Printf("index lookup city=ann-arbor: %d rows\n", n)

	// --- 6. Symbolic view in the expression language ---------------------
	env := xlang.NewEnv()
	if err := db2.BindAll(env); err != nil {
		panic(err)
	}
	v, err := xlang.Eval(env, "card(people)")
	if err != nil {
		panic(err)
	}
	fmt.Printf("xlang: card(people) = %v\n", v)

	// --- 7. JSON export ---------------------------------------------------
	var out bytes.Buffer
	if err := tableio.ExportJSON(people, &out); err != nil {
		panic(err)
	}
	fmt.Println("\nJSON export of people:")
	fmt.Print(out.String())
}

// load defines src's table in db and commits its rows there in one
// transaction, returning the published version.
func load(db *catalog.Database, src *table.Table) *table.Table {
	var rows []table.Row
	err := src.Scan(func(_ store.RID, r table.Row) (bool, error) {
		rows = append(rows, r)
		return true, nil
	})
	if err != nil {
		panic(err)
	}
	name := src.Schema().Name
	if _, err := db.CreateTable(src.Schema()); err != nil {
		panic(err)
	}
	if err := db.Load(context.Background(), name, rows); err != nil {
		panic(err)
	}
	t, err := db.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}
