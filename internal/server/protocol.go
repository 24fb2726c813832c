// Wire protocol of the xstd query server: newline-delimited requests
// over TCP, newline-delimited JSON responses.
//
// A request line is either
//
//   - a JSON object {"id":n,"stmt":"...","timeout_ms":m} — id and
//     timeout_ms optional — or
//   - a raw xlang statement (anything that does not parse as such a
//     JSON object), e.g.  {1,2}+{3}  — set literals are not valid JSON,
//     so the two forms never collide.
//
// Statements beginning with '.' are admin commands. The read commands
// are aliases for system-view queries and answer exactly as those
// queries do (streamed rows, admission, a __sys.queries entry):
//
//	.stats, .metrics   from __sys.metrics
//	.slow              from __sys.slow
//	.tables, .schema   from __sys.tables
//
// The server itself handles the commands that act: .ping, .trace,
// .load, .analyze, .createindex, .checkpoint and .quit. Everything else
// is evaluated in the connection's session environment. `.trace <stmt>`
// runs stmt forcibly traced and answers with the query's span tree as
// JSON instead of the rendered result. `.load <json>` creates or
// extends a session-private scratch table (name must start with "__")
// from wire-encoded rows; federated joins use it to ship key sets and
// broadcast build sides to a site. A federation coordinator reads each
// site's catalog as the wire-mode rows of `from __sys.tables` and
// `from __sys.stats`.
//
// Every request produces exactly one *final* response line:
//
//	{"id":n,"result":"...","elapsed_us":12}     success
//	{"id":n,"error":"...","elapsed_us":12}      failure
//
// so clients may pipeline requests and match them up by id (responses
// come back in request order). Query statements (`from …`) additionally
// stream zero or more intermediate batch lines *before* the final line,
// each marked with "more" so a client knows to keep reading:
//
//	{"id":n,"batch":["<1 ada 7>","<2 bo 3>"],"more":true}
//	{"id":n,"result":"2 rows","rows":2,"elapsed_us":34}
//
// Batch lines hold at most exec.MaxBatchRows rows and 64 KiB (only a
// longer row makes a longer line, alone), cut wherever they fill, not
// at the operator tree's batch edges. Each full line goes out at once,
// so the first rows of a large result arrive while the rest is still
// being computed; the last goes out with the final line, in one write.
//
// A request with "wire":true asks for machine-readable batches: each
// Batch entry is one row in the table codec (table.EncodeRow),
// base64-encoded, and the final line carries the result column names in
// "schema". This is the fragment transport of federated execution —
// rows cross the network once in their canonical encoding instead of as
// rendered text.
//
// Every end uses one codec (codec.go): encoders that write the bytes
// json.Marshal writes, HTML escaping and omitempty included, and a
// scanner for that subset (known keys, ASCII strings, short integers).
// Non-ASCII text, the Trace field and any line outside the subset go
// through encoding/json, so the format is unchanged byte for byte. The
// server, Client and the federation coordinator, which talks to its
// sites through Client's Send and Recv, are those ends. A .load chunk's
// rows stay bytes; fragment rows decode through DecodeWireRows.
package server

import "xst/internal/trace"

// Request is one statement to evaluate.
type Request struct {
	// ID is echoed back in the response; clients choose it.
	ID uint64 `json:"id,omitempty"`
	// Stmt is the xlang statement or .admin command.
	Stmt string `json:"stmt"`
	// TimeoutMS overrides the server's default per-query deadline,
	// clamped to the server's maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Wire asks for wire-encoded query batches: base64 of the row codec
	// instead of rendered tuples, plus the schema on the final line.
	Wire bool `json:"wire,omitempty"`
	// TraceID joins the statement to a distributed trace: the server
	// forces tracing, roots its span tree under this id, and returns the
	// finished tree in the final response's Trace field. Federation
	// coordinators set it on fragment requests so each site's spans come
	// home tagged with the coordinator's trace identity.
	TraceID string `json:"trace_id,omitempty"`
}

// Response is the outcome of one request, or one streamed batch of a
// query result when More is set.
type Response struct {
	ID uint64 `json:"id,omitempty"`
	// Result is the rendered value (or admin output) on success.
	Result string `json:"result,omitempty"`
	// Error is the failure message; empty on success.
	Error string `json:"error,omitempty"`
	// Batch carries one streamed batch of rendered result rows (query
	// statements only).
	Batch []string `json:"batch,omitempty"`
	// More marks an intermediate batch line; further lines for the same
	// request follow until a line without it.
	More bool `json:"more,omitempty"`
	// Rows is the total row count of a streamed query result (final
	// line only).
	Rows int `json:"rows,omitempty"`
	// Schema carries the result column names on the final line of a
	// wire-mode query.
	Schema []string `json:"schema,omitempty"`
	// Trace is the statement's finished span tree, returned on the final
	// line when the request carried a TraceID.
	Trace *trace.SpanSnapshot `json:"trace,omitempty"`
	// ElapsedUS is the server-side evaluation time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// ParseRequest decodes one wire line. JSON request objects and raw
// statement lines are both accepted (see the package comment).
func ParseRequest(line string) Request {
	var l scanner
	return l.request([]byte(line))
}
