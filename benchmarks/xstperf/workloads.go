package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"xst/internal/algebra"
	"xst/internal/core"
	"xst/internal/plan"
	"xst/internal/process"
	"xst/internal/table"
	"xst/internal/xsp"
)

const (
	cities    = 50
	chunkRows = 50 // rows per mixed_rw .load (one transaction, one fsync)
	rangeRows = 20 // rows per point_lookup btree range
)

// spec is one row of the workload table: every size is a constant here
// and is echoed in the report.
type spec struct {
	name string
	// rows generated per table (0 = table absent)
	users, orders, events int
	// set_algebra: f and g hold `pairs` random pairs over `domain` values;
	// ch is `chains` disjoint chains of `chainLen` nodes, so card(tclose(ch))
	// is the same for every seed.
	pairs, domain, chains, chainLen int
	frames                          int
	storage                         string // "mem", "file" or "durable"
	replay                          int    // statements in the layer replay
	templates                       []*template
}

type opKind uint8

const (
	kindQuery opKind = iota // `from …`: plan → exec, streamed batches
	kindEval                // xlang expression: EvalCtx → algebra
	kindLoad                // `.load`: one durable transaction
)

// template is one weighted statement shape. draw picks the literals and
// computes the expected answer from the generated data alone; node is
// the equivalent un-optimised hand-built plan (queries), direct the
// algebra call the evaluator ends up making (expressions).
type template struct {
	name   string
	weight int
	kind   opKind
	draw   func(w *world, s *stream) op
	node   func(w *world, o op) plan.Node
	direct func(w *world, o op) core.Value
}

// op is one drawn statement with its oracle answer.
type op struct {
	tmpl   *template
	text   string
	rows   int    // expected row count (queries)
	sum    uint64 // expected sum of row-text hashes (queries)
	result string // expected rendered value (expressions)
	k      int64  // the varying literal
	chunk  []table.Row
	first  int64 // first id of the chunk (loads)
	bytes  int   // table.EncodeRow bytes in the chunk (loads)
}

var specs = []*spec{
	{
		name:  "point_lookup",
		users: 20_000, orders: 200_000, frames: 4096, storage: "mem",
		replay: 2000,
		templates: []*template{
			{name: "user_by_id", weight: 80, kind: kindQuery, draw: drawUserByID, node: nodeUserByID},
			{name: "order_range", weight: 20, kind: kindQuery, draw: drawOrderRange, node: nodeOrderRange},
		},
	},
	{
		name:  "analytic",
		users: 4_000, orders: 40_000, frames: 64, storage: "file",
		replay: 200,
		templates: []*template{
			{name: "group_uid", weight: 30, kind: kindQuery, draw: drawGroupUID, node: nodeGroupUID},
			{name: "join_group_city", weight: 20, kind: kindQuery, draw: drawJoinGroupCity, node: nodeJoinGroupCity},
			{name: "join_filter", weight: 20, kind: kindQuery, draw: drawJoinFilter, node: nodeJoinFilter},
			{name: "filter_ids", weight: 30, kind: kindQuery, draw: drawFilterIDs, node: nodeFilterIDs},
		},
	},
	{
		name:  "mixed_rw",
		users: 20_000, events: 200_000, frames: 4096, storage: "durable",
		replay: 2000,
		templates: []*template{
			{name: "load_chunk", weight: 20, kind: kindLoad, draw: drawLoad},
			{name: "event_by_id", weight: 60, kind: kindQuery, draw: drawEventByID, node: nodeEventByID},
			{name: "group_city", weight: 20, kind: kindQuery, draw: drawGroupCity, node: nodeGroupCity},
		},
	},
	{
		name:  "set_algebra",
		users: 20_000, pairs: 2000, domain: 2000, chains: 40, chainLen: 16, frames: 4096, storage: "mem",
		replay: 2000,
		templates: []*template{
			{name: "image", weight: 37, kind: kindEval, draw: drawImage, direct: directImage},
			{name: "compose", weight: 15, kind: kindEval, draw: drawFixed("card(compose(g, f))"), direct: directCompose},
			{name: "union", weight: 8, kind: kindEval, draw: drawFixed("card(f + g)"), direct: directUnion},
			{name: "intersect", weight: 7, kind: kindEval, draw: drawFixed("card(f & g)"), direct: directIntersect},
			{name: "dom1", weight: 5, kind: kindEval, draw: drawFixed("card(dom1(f))"), direct: directDom1},
			{name: "inverse", weight: 5, kind: kindEval, draw: drawFixed("card(inverse(f))"), direct: directInverse},
			{name: "table_image", weight: 10, kind: kindEval, draw: drawTableImage, direct: directTableImage},
			{name: "relprod", weight: 5, kind: kindEval, draw: drawFixed("card(relprod(f, g, pos(1), pos(2), pos(2), {1^2}))"), direct: directRelprod},
			{name: "tclose", weight: 8, kind: kindEval, draw: drawFixed("card(tclose(ch))"), direct: directTclose},
		},
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// seeded is the number of rows setup loads into a table; their ids are
// 0 … seeded-1.
func (sp *spec) seeded(table string) int {
	return map[string]int{"users": sp.users, "orders": sp.orders, "events": sp.events}[table]
}

func (sp *spec) sizes() map[string]int {
	return map[string]int{
		"users": sp.users, "orders": sp.orders, "events": sp.events,
		"pairs": sp.pairs, "domain": sp.domain, "chains": sp.chains, "chain_len": sp.chainLen,
		"pool_frames": sp.frames, "chunk_rows": chunkRows, "range_rows": rangeRows,
		"replay": sp.replay,
	}
}

// dataset is everything generated from the seed, as plain Go values.
// The oracle reads only this; the server sees only what load() derives
// from it.
type dataset struct {
	city   []int   // users[i] = (i, city-%03d, score[i])
	score  []int64 //
	uid    []int64 // orders[i] = (i, uid[i], amount[i])
	amount []int64 //
	events int     // events[i] = (i, 0, eventVal(i))
	f, g   [][2]int64
	ch     [][2]int64
}

func rng(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(stream)))
}

// generate builds the dataset of sp from the seed (stream -1; the
// connections use streams 0, 1, …).
func generate(sp *spec, seed uint64) *dataset {
	r := rng(seed, -1)
	d := &dataset{events: sp.events}
	d.city = make([]int, sp.users)
	d.score = make([]int64, sp.users)
	for i := range d.city {
		d.city[i] = r.Intn(cities)
		d.score[i] = int64(r.Intn(100))
	}
	d.uid = make([]int64, sp.orders)
	d.amount = make([]int64, sp.orders)
	for i := range d.uid {
		d.uid[i] = int64(r.Intn(sp.users))
		d.amount[i] = int64(r.Intn(1000))
	}
	pairs := func() [][2]int64 {
		out := make([][2]int64, sp.pairs)
		for i := range out {
			out[i] = [2]int64{int64(r.Intn(sp.domain)), int64(r.Intn(sp.domain))}
		}
		return out
	}
	d.f, d.g = pairs(), pairs()
	// The closure graph: disjoint chains over seed-permuted node labels.
	labels := r.Perm(sp.chains * sp.chainLen)
	for c := 0; c < sp.chains; c++ {
		for i := 0; i+1 < sp.chainLen; i++ {
			d.ch = append(d.ch, [2]int64{int64(labels[c*sp.chainLen+i]), int64(labels[c*sp.chainLen+i+1])})
		}
	}
	return d
}

// checksum folds every generated value, for the determinism test.
func (d *dataset) checksum() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * 1099511628211 }
	for i := range d.city {
		mix(int64(d.city[i]))
		mix(d.score[i])
	}
	for i := range d.uid {
		mix(d.uid[i])
		mix(d.amount[i])
	}
	mix(int64(d.events))
	for _, ps := range [][][2]int64{d.f, d.g, d.ch} {
		for _, p := range ps {
			mix(p[0])
			mix(p[1])
		}
	}
	return h
}

func eventVal(id int64) int64 { return id * 2654435761 % 1000 }

func cityName(c int) string { return fmt.Sprintf("city-%03d", c) }

func (d *dataset) userRows() []table.Row {
	rows := make([]table.Row, len(d.city))
	for i := range rows {
		rows[i] = table.Row{core.Int(i), core.Str(cityName(d.city[i])), core.Int(d.score[i])}
	}
	return rows
}

func (d *dataset) orderRows() []table.Row {
	rows := make([]table.Row, len(d.uid))
	for i := range rows {
		rows[i] = table.Row{core.Int(i), core.Int(d.uid[i]), core.Int(d.amount[i])}
	}
	return rows
}

func eventRows(first int64, n int, batch int64) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		id := first + int64(i)
		rows[i] = table.Row{core.Int(id), core.Int(batch), core.Int(eventVal(id))}
	}
	return rows
}

func pairSet(ps [][2]int64) *core.Set {
	b := core.NewBuilder(len(ps))
	for _, p := range ps {
		b.AddClassical(core.Pair(core.Int(p[0]), core.Int(p[1])))
	}
	return b.Set()
}

// pairLiteral renders a pair list as the xlang set literal a client
// binds at setup: {<1,2>,<3,4>,…}.
func pairLiteral(ps [][2]int64) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "<%d,%d>", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}

// ---- the oracle: expected answers in plain Go over the dataset ----

// hashRow is the checksum unit: FNV-1a of a row as the server renders
// it. A result's checksum is the wrapping sum over its rows, so it does
// not depend on row order.
func hashRow(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// row renders values the way the server renders a result row:
// <1,"city-007",42>.
func row(vals ...any) string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		switch x := v.(type) {
		case string:
			b.WriteString(strconv.Quote(x))
		case int64:
			b.WriteString(strconv.FormatInt(x, 10))
		case int:
			b.WriteString(strconv.Itoa(x))
		}
	}
	b.WriteByte('>')
	return b.String()
}

type answer struct {
	rows int
	sum  uint64
}

// oracle holds the answers precomputed at setup, so that checking a
// response costs the client almost nothing inside the timed loop.
type oracle struct {
	userHash  []uint64 // hash of <id,city,score>
	orderPref []uint64 // prefix sums of hash(<id,uid,amount>)
	groupUID  answer
	joinCity  answer
	groupCity answer
	// by amount a: rows with amount == a, and their checksum, for the two
	// filter templates; summed over the literal's range per draw.
	joinFilter [1000]answer
	filterIDs  [1000]answer
	// set_algebra
	image map[int64]int     // K → |{y : (K,y) ∈ f}|
	fixed map[string]string // literal-free template name → card
}

type agg struct{ count, sum int64 }

func newOracle(sp *spec, d *dataset) *oracle {
	o := &oracle{}
	o.userHash = make([]uint64, len(d.city))
	for i := range d.city {
		o.userHash[i] = hashRow(row(i, cityName(d.city[i]), d.score[i]))
	}
	o.orderPref = make([]uint64, len(d.uid)+1)
	byUID := map[int64]*agg{}
	byCity := make([]agg, cities)
	for i := range d.uid {
		o.orderPref[i+1] = o.orderPref[i] + hashRow(row(i, d.uid[i], d.amount[i]))
		a := byUID[d.uid[i]]
		if a == nil {
			a = &agg{}
			byUID[d.uid[i]] = a
		}
		a.count++
		a.sum += d.amount[i]
		c := d.city[d.uid[i]]
		byCity[c].count++
		byCity[c].sum += d.amount[i]
		jf := &o.joinFilter[d.amount[i]]
		jf.rows++
		jf.sum += hashRow(row(d.amount[i], cityName(c)))
		fi := &o.filterIDs[d.amount[i]]
		fi.rows++
		fi.sum += hashRow(row(i))
	}
	for uid, a := range byUID {
		o.groupUID.rows++
		o.groupUID.sum += hashRow(row(uid, a.count, a.sum))
	}
	for c, a := range byCity {
		if a.count > 0 {
			o.joinCity.rows++
			o.joinCity.sum += hashRow(row(cityName(c), a.count, a.sum))
		}
	}
	scoreByCity := make([]agg, cities)
	for i, c := range d.city {
		scoreByCity[c].count++
		scoreByCity[c].sum += d.score[i]
	}
	for c, a := range scoreByCity {
		if a.count > 0 {
			o.groupCity.rows++
			o.groupCity.sum += hashRow(row(cityName(c), a.count, a.sum))
		}
	}
	if sp.pairs > 0 {
		o.algebra(d)
	}
	return o
}

// algebra computes the set_algebra answers with maps and loops only.
func (o *oracle) algebra(d *dataset) {
	type pair = [2]int64
	set := func(ps []pair) map[pair]bool {
		m := make(map[pair]bool, len(ps))
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	f, g := set(d.f), set(d.g)
	images := map[int64]map[int64]bool{}
	fwd := func(m map[pair]bool) map[int64][]int64 { // x → ys
		out := map[int64][]int64{}
		for p := range m {
			out[p[0]] = append(out[p[0]], p[1])
		}
		return out
	}
	bwd := func(m map[pair]bool) map[int64][]int64 { // y → xs
		out := map[int64][]int64{}
		for p := range m {
			out[p[1]] = append(out[p[1]], p[0])
		}
		return out
	}
	o.image = map[int64]int{}
	for p := range f {
		if images[p[0]] == nil {
			images[p[0]] = map[int64]bool{}
		}
		images[p[0]][p[1]] = true
	}
	for k, ys := range images {
		o.image[k] = len(ys)
	}
	// compose(g, f) = {<x,z> : <x,y> ∈ f, <y,z> ∈ g}
	gf := fwd(g)
	comp := map[pair]bool{}
	for p := range f {
		for _, z := range gf[p[1]] {
			comp[pair{p[0], z}] = true
		}
	}
	o.fixed = map[string]string{}
	o.fixed["compose"] = strconv.Itoa(len(comp))
	both := 0
	for p := range f {
		if g[p] {
			both++
		}
	}
	o.fixed["union"] = strconv.Itoa(len(f) + len(g) - both)
	o.fixed["intersect"] = strconv.Itoa(both)
	o.fixed["dom1"] = strconv.Itoa(len(images))
	o.fixed["inverse"] = strconv.Itoa(len(f))
	// relprod(f, g, pos(1), pos(2), pos(2), {1^2}) joins on the second
	// components and keeps both first components: {<x,y> : f(x)=g(y)}.
	gb := bwd(g)
	rp := map[pair]bool{}
	for p := range f {
		for _, y := range gb[p[1]] {
			rp[pair{p[0], y}] = true
		}
	}
	o.fixed["relprod"] = strconv.Itoa(len(rp))
	// tclose(ch): reachability by depth-first search from every node.
	succ := fwd(set(d.ch))
	reach := 0
	for start := range succ {
		seen := map[int64]bool{}
		stack := append([]int64(nil), succ[start]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, succ[n]...)
		}
		reach += len(seen)
	}
	o.fixed["tclose"] = strconv.Itoa(reach)
}

// ---- statement streams ----

// stream is one connection's seeded statement source.
type stream struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	// mixed_rw: first ids of the chunks this connection has had
	// acknowledged, and how many chunks it has drawn.
	acked []int64
	drawn int64
	total int     // sum of the template weights
	phase float64 // in [0, 1): where the next template is read off the weight table
	seq   uint64  // statements drawn, for span ids
}

func newStream(sp *spec, seed uint64, id int) *stream {
	s := &stream{id: id, rng: rng(seed, id)}
	s.phase = s.rng.Float64()
	if sp.users > 1 {
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(sp.users-1))
	}
	for _, t := range sp.templates {
		s.total += t.weight
	}
	return s
}

// next draws one statement: a template by weight, then its literals.
// The literals are i.i.d. draws. The template is read off the weight
// table at a phase that starts at a seeded point and advances by the
// golden ratio, so every stretch of n statements holds each template
// n·weight/total ± 2 times in an order that never repeats: with i.i.d.
// draws the share of a rare, costly template (tclose: 8 %, a hundred
// times the median statement) differs by ± 5 % from run to run, and
// every per-statement count follows it.
func (s *stream) next(w *world) op {
	s.seq++
	s.phase += math.Phi - 1
	if s.phase >= 1 {
		s.phase--
	}
	n := int(s.phase * float64(s.total))
	for _, t := range w.sp.templates {
		if n < t.weight {
			o := t.draw(w, s)
			o.tmpl = t
			if want, ok := w.or.fixed[t.name]; ok {
				o.result = want
			}
			return o
		}
		n -= t.weight
	}
	panic("unreachable: weights sum to total")
}

// ack records the outcome of a statement; only loads carry state.
func (s *stream) ack(o op, ok bool) {
	if ok && o.tmpl.kind == kindLoad {
		s.acked = append(s.acked, o.first)
	}
}

func scan(w *world, name string) *plan.Scan { return &plan.Scan{Table: w.table(name)} }

func cmp(col string, op plan.CmpOp, v int64) plan.Cmp {
	return plan.Cmp{Col: col, Op: op, Val: core.Int(v)}
}

func countSum(col string) []plan.AggSpec {
	return []plan.AggSpec{{Kind: xsp.Count}, {Kind: xsp.Sum, Col: col}}
}

func drawUserByID(w *world, s *stream) op {
	k := int64(s.zipf.Uint64())
	return op{k: k, rows: 1, sum: w.or.userHash[k],
		text: "from users where id = " + strconv.FormatInt(k, 10) + " select id, city, score"}
}

func nodeUserByID(w *world, o op) plan.Node {
	return &plan.Project{Cols: []string{"id", "city", "score"},
		Child: &plan.Select{Child: scan(w, "users"), Pred: cmp("id", plan.Eq, o.k)}}
}

// drawOrderRange starts its range in the first third of orders.id. The
// planner multiplies the two bounds' selectivities as if independent,
// so around the histogram's median bucket it estimates a quarter of the
// table and refuses the btree; with uniform starts 7 % of the ranges
// became 200 000-row scans (plan.index_path_share 0.986), a thousand
// times the cost of the others, and the workload measured those scans
// and not the front end. The traced run reports the planner's choice
// over uniform starts as plan.range_index_share, so that a fix shows.
func drawOrderRange(w *world, s *stream) op {
	k := int64(s.rng.Intn(w.sp.orders / 3))
	return op{k: k, rows: rangeRows, sum: w.or.orderPref[k+rangeRows] - w.or.orderPref[k], text: orderRangeStmt(k)}
}

func orderRangeStmt(k int64) string {
	return fmt.Sprintf("from orders where id >= %d and id < %d select id, uid, amount", k, k+rangeRows)
}

func nodeOrderRange(w *world, o op) plan.Node {
	return &plan.Project{Cols: []string{"id", "uid", "amount"},
		Child: &plan.Select{Child: scan(w, "orders"),
			Pred: plan.And{cmp("id", plan.Ge, o.k), cmp("id", plan.Lt, o.k+rangeRows)}}}
}

func drawGroupUID(w *world, s *stream) op {
	return op{rows: w.or.groupUID.rows, sum: w.or.groupUID.sum,
		text: "from orders group by uid count sum(amount)"}
}

func nodeGroupUID(w *world, o op) plan.Node {
	return &plan.GroupBy{Child: scan(w, "orders"), Key: "uid", Aggs: countSum("amount")}
}

func ordersJoinUsers(w *world) *plan.Join {
	return &plan.Join{Left: scan(w, "orders"), Right: scan(w, "users"), LeftCol: "uid", RightCol: "id"}
}

func drawJoinGroupCity(w *world, s *stream) op {
	return op{rows: w.or.joinCity.rows, sum: w.or.joinCity.sum,
		text: "from orders join users on uid = id group by city count sum(amount)"}
}

func nodeJoinGroupCity(w *world, o op) plan.Node {
	return &plan.GroupBy{Child: ordersJoinUsers(w), Key: "city", Aggs: countSum("amount")}
}

// The two filters vary their threshold by ±10 around the issue's value,
// so selectivity stays ≈ 10 % while the literal changes per draw.
func drawJoinFilter(w *world, s *stream) op {
	k := int64(90 + s.rng.Intn(21))
	o := op{k: k, text: fmt.Sprintf("from orders join users on uid = id where amount < %d select amount, city", k)}
	for a := int64(0); a < k; a++ {
		o.rows += w.or.joinFilter[a].rows
		o.sum += w.or.joinFilter[a].sum
	}
	return o
}

func nodeJoinFilter(w *world, o op) plan.Node {
	return &plan.Project{Cols: []string{"amount", "city"},
		Child: &plan.Select{Child: ordersJoinUsers(w), Pred: cmp("amount", plan.Lt, o.k)}}
}

func drawFilterIDs(w *world, s *stream) op {
	k := int64(890 + s.rng.Intn(21))
	o := op{k: k, text: fmt.Sprintf("from orders where amount >= %d select id", k)}
	for a := k; a < 1000; a++ {
		o.rows += w.or.filterIDs[a].rows
		o.sum += w.or.filterIDs[a].sum
	}
	return o
}

func nodeFilterIDs(w *world, o op) plan.Node {
	return &plan.Project{Cols: []string{"id"},
		Child: &plan.Select{Child: scan(w, "orders"), Pred: cmp("amount", plan.Ge, o.k)}}
}

// connBase keeps the ids loaded by different connections apart, and
// apart from the seeded rows.
func connBase(conn int) int64 { return int64(conn+1) * 10_000_000 }

func drawLoad(w *world, s *stream) op {
	first := connBase(s.id) + s.drawn*chunkRows
	s.drawn++
	return loadOp(first, s.drawn)
}

// loadOp builds the `.load` of one chunk of events starting at id first.
func loadOp(first, batch int64) op {
	o := op{first: first, chunk: eventRows(first, chunkRows, batch)}
	enc := make([]string, len(o.chunk))
	var buf []byte
	for i, r := range o.chunk {
		buf = table.EncodeRow(buf[:0], r)
		o.bytes += len(buf)
		enc[i] = base64.StdEncoding.EncodeToString(buf)
	}
	payload, _ := json.Marshal(map[string]any{"table": "events", "rows": enc})
	o.text = ".load " + string(payload)
	return o
}

// drawEventByID looks up an id this connection has had acknowledged,
// favouring recent chunks; before its first acknowledgement, a seeded id.
func drawEventByID(w *world, s *stream) op {
	k := int64(s.rng.Intn(w.sp.events))
	batch := int64(0)
	if n := len(s.acked); n > 0 {
		back := int(s.rng.ExpFloat64() * 8)
		if back >= n {
			back = n - 1
		}
		k = s.acked[n-1-back] + int64(s.rng.Intn(chunkRows))
		batch = (k-connBase(s.id))/chunkRows + 1
	}
	return op{k: k, rows: 1, sum: hashRow(row(k, batch, eventVal(k))),
		text: "from events where id = " + strconv.FormatInt(k, 10) + " select id, batch, val"}
}

func nodeEventByID(w *world, o op) plan.Node {
	return &plan.Project{Cols: []string{"id", "batch", "val"},
		Child: &plan.Select{Child: scan(w, "events"), Pred: cmp("id", plan.Eq, o.k)}}
}

func drawGroupCity(w *world, s *stream) op {
	return op{rows: w.or.groupCity.rows, sum: w.or.groupCity.sum,
		text: "from users group by city count sum(score)"}
}

func nodeGroupCity(w *world, o op) plan.Node {
	return &plan.GroupBy{Child: scan(w, "users"), Key: "city", Aggs: countSum("score")}
}

func drawImage(w *world, s *stream) op {
	k := int64(s.rng.Intn(w.sp.domain))
	return op{k: k, result: strconv.Itoa(w.or.image[k]),
		text: "card(f[{<" + strconv.FormatInt(k, 10) + ">}])"}
}

// drawFixed is a template without literals; its answer is the oracle's
// entry under the template's name.
func drawFixed(text string) func(*world, *stream) op {
	return func(w *world, s *stream) op { return op{text: text} }
}

// drawTableImage reads a stored table as a set: users[{<K>}] is the
// one 1-tuple <city> of user K (the standard image keeps position 2).
func drawTableImage(w *world, s *stream) op {
	k := int64(s.zipf.Uint64())
	return op{k: k, result: "1", text: "card(users[{<" + strconv.FormatInt(k, 10) + ">}])"}
}

func card(s *core.Set) core.Value { return core.Int(core.Card(s)) }

func key(k int64) *core.Set {
	return core.NewBuilder(1).AddClassical(core.Tuple(core.Int(k))).Set()
}

func directImage(w *world, o op) core.Value {
	return card(algebra.Image(w.f, key(o.k), algebra.StdSigma()))
}

func directTableImage(w *world, o op) core.Value {
	return card(algebra.Image(w.usersSet, key(o.k), algebra.StdSigma()))
}

func directCompose(w *world, o op) core.Value {
	return card(process.MustStdCompose(process.Std(w.g), process.Std(w.f)).F)
}

func directUnion(w *world, o op) core.Value     { return card(core.Union(w.f, w.g)) }
func directIntersect(w *world, o op) core.Value { return card(core.Intersect(w.f, w.g)) }
func directDom1(w *world, o op) core.Value      { return card(algebra.Domain1(w.f)) }

func directInverse(w *world, o op) core.Value {
	return card(algebra.SigmaDomain(w.f, algebra.Positions(2, 1)))
}

func directRelprod(w *world, o op) core.Value {
	return card(algebra.RelativeProduct(w.f, w.g,
		algebra.NewSigma(algebra.Positions(1), algebra.Positions(2)),
		algebra.NewSigma(algebra.Positions(2), algebra.ScopeSet([2]int{1, 2}))))
}

func directTclose(w *world, o op) core.Value { return card(algebra.TransitiveClosure(w.ch)) }
