package dynamic

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// Allocation projections for load and server churn. When demand changes
// or servers join or leave mid-session, the carried-over allocation
// must stay feasible (every row summing to its organization's load,
// entries non-negative) so the next warm re-solve starts from a valid —
// and usually still near-optimal — point. Allocations are sparse
// requests matrices (request units); every projection costs O(nnz + m)
// and builds its result on contiguous backing arrays, so a whole
// projection is a handful of allocations regardless of m — the property
// the session's allocation-regression smoke tests pin. Dense oracles in
// oracle_test.go pin them entry for entry. Server churn changes the
// instance too, so a Resize records each join's server along with its
// load and settles the instance from the same record.

// newContiguous allocates a rows×cols sparse matrix with capacity for
// nnz entries backed by two contiguous arrays.
func newContiguous(rows, cols, nnz int) (*sparse.Matrix, []int32, []float64) {
	return &sparse.Matrix{
		Cols: cols,
		Idx:  make([][]int32, rows),
		Val:  make([][]float64, rows),
	}, make([]int32, 0, nnz), make([]float64, 0, nnz)
}

// Rescale adapts an allocation from the old loads to the new ones by
// preserving each organization's relay fractions — what a running system
// does naturally when its demand changes but its routing table persists.
// Each row follows RowScale.
func Rescale(a *sparse.Matrix, oldLoads, newLoads []float64) *sparse.Matrix {
	return sparse.ScaleRows(a, func(i int) (float64, float64, bool) {
		f, keep := RowScale(oldLoads[i], newLoads[i])
		return f, newLoads[i], keep
	})
}

// RowScale is the rule Rescale applies to one organization's row when
// its load moves from oldLoad to newLoad. A row that carried load keeps
// its relay fractions: every entry is multiplied by factor =
// newLoad/oldLoad (keep is true). A row that carried none has nothing
// to scale and restarts as the identity placement of its new load: one
// entry, newLoad, on the organization's own server (keep is false).
func RowScale(oldLoad, newLoad float64) (factor float64, keep bool) {
	if oldLoad > 0 {
		return newLoad / oldLoad, true
	}
	return 0, false
}

// Resize is a batch of server joins and leaves, recorded one edit at a
// time against an instance and its m×m allocation and applied to both
// by Apply: the instance in one pass with one Validate, the allocation
// in one O(nnz + m + edits) projection. The projection is the failover
// a running system applies to churn:
//
//   - a leaving organization's row vanishes (its requests leave with
//     it), and every index above it shifts down by one;
//   - every surviving organization pulls the requests it was relaying
//     to a departed server back to its own server, so each surviving
//     row still sums to its unchanged load; the next warm re-solve
//     redistributes that returned mass;
//   - a joining organization is appended at the end and serves its own
//     load, like the identity start of a fresh server; nobody relays to
//     a server it has not seen yet.
//
// Apply gives, bit for bit, what applying the edits one at a time
// gives: a row's mass on departed servers folds onto its diagonal in
// departure order (float addition is not associative), a zero orphan
// creates no diagonal entry, and a join stores its load on its diagonal
// even when the load is 0. The instance it builds is the one applying
// the edits one at a time builds, and Join and Leave return, edit by
// edit, the error that instance's Validate would report.
//
// Recording a leave, or a join whose delays follow from its metro
// label, costs O(1) amortized plus at most one O(m) int32 copy, and
// the batch's first edit lays out an O(m) index map. A join with
// explicit delay rows costs the O(m) it takes to check and keep them.
// On a block (metro) instance Apply builds the next instance in
// O(m + k²), sharing the delay table; on a dense one, or once a join's
// rows contradict the metro table, in O(m²).
type Resize struct {
	m     int     // servers in the instance and allocation the batch applies to
	edits int     // edits recorded since the last Apply
	live  []int32 // current index → id; ids m and up are joins
	rank  []int32 // departure rank per original row, -1 while it lives
	gone  int32   // original rows departed so far
	joins []join  // by id − m

	// What the checks need of the instance, laid out with the batch.
	block  *model.BlockLatency // the instance's metro view; nil when dense
	dense  bool                // a join's rows contradicted block: the batch settles dense
	labels []int               // the instance's cluster labels, nil without a hint
	big    int                 // live servers labeled MaxSmallClusterLabel or more

	pos  []int32  // reused by Apply: new index per surviving original row
	orph []orphan // reused by Apply: one row's mass on departed servers
}

// Join describes a server joining an instance.
type Join struct {
	// Speed (> 0) and Load (≥ 0, the joining organization's requests).
	Speed, Load float64
	// Cluster is the server's metro label; ignored when the instance
	// carries no labels.
	Cluster int
	// To[j] and From[j] are the delays to and from the server now at
	// index j, +Inf for a forbidden link. On a block instance both may
	// be nil: the metro table gives them. Rows that match the table keep
	// the block form; rows that contradict it make the batch settle on
	// a dense view.
	To, From []float64
}

// join is a recorded Join. Its delay rows are keyed by id, so they stay
// valid whatever leaves after it; nil when the metro table gives them.
type join struct {
	speed, load float64
	label       int
	to, from    []float64
}

// orphan is a row's mass on a departed server, tagged with the
// server's departure rank.
type orphan struct {
	rank int32
	v    float64
}

// NewResize starts an empty batch against an m-server instance and its
// m×m allocation.
func NewResize(m int) *Resize { return &Resize{m: m} }

// Len returns the number of edits recorded since the last Apply.
func (r *Resize) Len() int { return r.edits }

// M returns the number of servers once the recorded edits apply.
func (r *Resize) M() int {
	if r.edits == 0 {
		return r.m
	}
	return len(r.live)
}

// begin lays out the identity index map, and what the checks need of
// in, until the batch's first edit is recorded.
func (r *Resize) begin(in *model.Instance) {
	if r.edits > 0 {
		return
	}
	r.live = slices.Grow(r.live[:0], r.m)[:r.m]
	r.rank = slices.Grow(r.rank[:0], r.m)[:r.m]
	for i := range r.live {
		r.live[i] = int32(i)
		r.rank[i] = -1
	}
	r.gone = 0
	r.block, _ = in.Latency.(*model.BlockLatency)
	r.dense = false
	r.labels = in.Cluster
	r.big = 0
	// A block view's labels are below its metro count.
	if r.labels != nil && (r.block == nil || r.block.K() > model.MaxSmallClusterLabel) {
		for _, g := range r.labels {
			if g >= model.MaxSmallClusterLabel {
				r.big++
			}
		}
	}
}

// label returns the cluster label of id; the batch must carry labels.
func (r *Resize) label(id int32) int {
	if int(id) < r.m {
		return r.labels[id]
	}
	return r.joins[int(id)-r.m].label
}

// checkLabels returns the first error Validate reports for the live
// labels, the server at index skip left out, in an instance of n
// servers. Only labels of MaxSmallClusterLabel or more can fail, so the
// scan runs only while the batch holds some.
func (r *Resize) checkLabels(skip, n int) error {
	if r.big == 0 {
		return nil
	}
	p := 0
	for i, id := range r.live {
		if i == skip {
			continue
		}
		if err := model.CheckLabel(p, r.label(id), n); err != nil {
			return err
		}
		p++
	}
	return nil
}

// Join checks and records a server joining at the end of in, the
// instance the batch applies to. Join and Leave name the edit in their
// errors ("dynamic: join ...", "dynamic: leave ..."), and sessions and
// the descent plane return them as they are, so both report the same
// text for the same bad edit.
func (r *Resize) Join(in *model.Instance, j Join) error {
	if j.Speed <= 0 || math.IsNaN(j.Speed) || math.IsInf(j.Speed, 0) {
		return fmt.Errorf("dynamic: join speed=%v, must be positive and finite", j.Speed)
	}
	if j.Load < 0 || math.IsNaN(j.Load) || math.IsInf(j.Load, 0) {
		return fmt.Errorf("dynamic: join load=%v, must be non-negative and finite", j.Load)
	}
	r.begin(in)
	m := len(r.live)
	rec := join{speed: j.Speed, load: j.Load, label: j.Cluster}
	densify := false
	if b := r.block; b != nil && !r.dense {
		if j.Cluster < 0 || j.Cluster >= b.K() {
			return fmt.Errorf("dynamic: join cluster=%d out of block range [0, %d)", j.Cluster, b.K())
		}
		if j.To == nil && j.From == nil || len(j.To) == m && len(j.From) == m && r.rowsMatch(b, j) {
			r.record(rec)
			return nil
		}
		densify = true
	}
	if len(j.To) != m || len(j.From) != m {
		return fmt.Errorf("dynamic: join latency rows have %d/%d entries, want %d", len(j.To), len(j.From), m)
	}
	// The dense instance's new column comes before its new row in
	// Validate's scan.
	for i, c := range j.From {
		if err := model.CheckDelay(i, m, c); err != nil {
			return err
		}
	}
	for k, c := range j.To {
		if err := model.CheckDelay(m, k, c); err != nil {
			return err
		}
	}
	if r.labels != nil {
		// Block labels were never held to the dense bound: a join that
		// densifies checks them all.
		if densify {
			if err := r.checkLabels(-1, m+1); err != nil {
				return err
			}
		}
		if err := model.CheckLabel(m, j.Cluster, m+1); err != nil {
			return err
		}
	}
	ids := r.m + len(r.joins)
	keyed := make([]float64, 2*ids)
	rec.to, rec.from = keyed[:ids:ids], keyed[ids:]
	for p, id := range r.live {
		rec.to[id], rec.from[id] = j.To[p], j.From[p]
	}
	r.dense = r.dense || densify
	r.record(rec)
	return nil
}

// rowsMatch reports whether explicit join rows agree exactly with the
// delays a server of metro j.Cluster has in b: exact float equality,
// mirroring ClusterDelays, so the block form is kept only when the rows
// are indistinguishable from the derived ones.
func (r *Resize) rowsMatch(b *model.BlockLatency, j Join) bool {
	drow := b.Delay[j.Cluster]
	for p, id := range r.live {
		g := r.label(id)
		if j.To[p] != drow[g] || j.From[p] != b.Delay[g][j.Cluster] {
			return false
		}
	}
	return true
}

// record appends a checked join.
func (r *Resize) record(rec join) {
	if r.labels != nil && rec.label >= model.MaxSmallClusterLabel {
		r.big++
	}
	r.live = append(r.live, int32(r.m+len(r.joins)))
	r.joins = append(r.joins, rec)
	r.edits++
}

// Leave checks and records that the server now at index i of in leaves.
// i is the server's index after every edit recorded before this one.
func (r *Resize) Leave(in *model.Instance, i int) error {
	r.begin(in)
	m := len(r.live)
	if i < 0 || i >= m {
		return fmt.Errorf("dynamic: leave index %d out of range [0, %d)", i, m)
	}
	if m == 1 {
		return fmt.Errorf("dynamic: leave would remove the only server")
	}
	id := r.live[i]
	if r.labels != nil {
		// On a dense view a label may outgrow the shrunk instance.
		if r.block == nil || r.dense {
			if err := r.checkLabels(i, m-1); err != nil {
				return err
			}
		}
		if r.label(id) >= model.MaxSmallClusterLabel {
			r.big--
		}
	}
	r.live = append(r.live[:i], r.live[i+1:]...)
	if int(id) < r.m {
		r.rank[id] = r.gone
		r.gone++
	}
	r.edits++
	return nil
}

// Apply applies the batch to in and to its allocation a, which must be
// the instance and allocation the batch was recorded against, and
// empties the batch: later edits are recorded against the results.
// Neither input is written, so a caller may keep handing them to
// readers outside its lock. The instance shares in's metro table when
// it stays block-backed. The allocation's rows come out sorted by
// column on two contiguous backings, each row capped at its length.
func (r *Resize) Apply(in *model.Instance, a *sparse.Matrix) (*model.Instance, *sparse.Matrix) {
	if in.M() != r.m || len(a.Idx) != r.m || a.Cols != r.m {
		panic(fmt.Sprintf("dynamic: Resize.Apply on %d servers and a %d×%d allocation, batch started against %d", in.M(), len(a.Idx), a.Cols, r.m))
	}
	r.begin(in)
	next := r.instance(in)
	if err := next.Validate(); err != nil {
		panic(fmt.Sprintf("dynamic: Resize.Apply built an invalid instance from checked edits: %v", err))
	}
	alloc := r.allocation(a)
	r.m, r.edits = len(r.live), 0
	clear(r.joins)
	r.joins = r.joins[:0]
	return next, alloc
}

// instance builds the instance the batch leaves behind.
func (r *Resize) instance(in *model.Instance) *model.Instance {
	n := len(r.live)
	out := &model.Instance{Speed: make([]float64, n), Load: make([]float64, n)}
	if r.labels != nil {
		out.Cluster = make([]int, n)
	}
	for p, id := range r.live {
		if int(id) < r.m {
			out.Speed[p], out.Load[p] = in.Speed[id], in.Load[id]
		} else {
			j := &r.joins[int(id)-r.m]
			out.Speed[p], out.Load[p] = j.speed, j.load
		}
		if out.Cluster != nil {
			out.Cluster[p] = r.label(id)
		}
	}
	if r.block != nil && !r.dense {
		out.Latency = model.NewBlock(r.block.Delay, out.Cluster)
	} else {
		out.Latency = model.NewDense(r.denseRows(in))
	}
	return out
}

// denseRows builds the n×n delay matrix. Two original servers keep
// their delay; a join's delays to and from every server before it come
// from its rows, or from the metro table when it has none. Originals
// precede joins in live, and joins keep their order.
func (r *Resize) denseRows(in *model.Instance) [][]float64 {
	n := len(r.live)
	rows := make([][]float64, n)
	buf := make([]float64, n*n)
	for p := range rows {
		rows[p], buf = buf[:n:n], buf[n:]
	}
	orig := r.live[:r.m-int(r.gone)]
	if d, ok := in.Latency.(model.DenseLatency); ok {
		for p, id := range orig {
			src, row := d[id], rows[p]
			for q, jd := range orig {
				row[q] = src[jd]
			}
		}
	} else {
		// A join's rows broke the metro table: the block view expands.
		model.BlockDenseMaterializations.Add(1)
		for p, id := range orig {
			drow, row := r.block.Delay[r.labels[id]], rows[p]
			for q, jd := range orig {
				row[q] = drow[r.labels[jd]]
			}
			row[p] = 0
		}
	}
	for p := len(orig); p < n; p++ {
		j := &r.joins[int(r.live[p])-r.m]
		row := rows[p]
		for q, id := range r.live[:p] {
			if j.to != nil {
				row[q], rows[q][p] = j.to[id], j.from[id]
			} else {
				g := r.label(id)
				row[q], rows[q][p] = r.block.Delay[j.label][g], r.block.Delay[g][j.label]
			}
		}
		row[p] = 0
	}
	return rows
}

// allocation projects the batch onto a.
func (r *Resize) allocation(a *sparse.Matrix) *sparse.Matrix {
	n := len(r.live)
	// Surviving rows keep their relative order, so pos is increasing
	// in the old column index and remapped rows stay sorted.
	r.pos = slices.Grow(r.pos[:0], r.m)[:r.m]
	for p, id := range r.live {
		if int(id) < r.m {
			r.pos[id] = int32(p)
		}
	}
	// Every folded diagonal and every join adds at most one entry per
	// new row to the surviving ones.
	out, ibuf, vbuf := newContiguous(n, n, a.NNZ()+n)
	for p, id := range r.live {
		start := len(ibuf)
		d := int32(p)
		if int(id) >= r.m {
			ibuf = append(ibuf, d)
			vbuf = append(vbuf, r.joins[int(id)-r.m].load)
		} else {
			ibuf, vbuf = r.project(ibuf, vbuf, a.Idx[id], a.Val[id], id, d)
		}
		out.Idx[p] = ibuf[start:len(ibuf):len(ibuf)]
		out.Val[p] = vbuf[start:len(vbuf):len(vbuf)]
	}
	return out
}

// project appends surviving row id, renumbered to index d, with its
// mass on departed servers folded onto the diagonal in departure order.
func (r *Resize) project(ibuf []int32, vbuf []float64, idx []int32, val []float64, id, d int32) ([]int32, []float64) {
	r.orph = r.orph[:0]
	var diag float64
	hasDiag := false
	for t, j := range idx {
		if k := r.rank[j]; k >= 0 {
			r.orph = append(r.orph, orphan{k, val[t]})
		} else if j == id {
			diag, hasDiag = val[t], true
		}
	}
	slices.SortFunc(r.orph, func(x, y orphan) int { return cmp.Compare(x.rank, y.rank) })
	for _, o := range r.orph {
		if o.v != 0 { // a zero orphan creates no diagonal; 0+v is v
			diag, hasDiag = diag+o.v, true
		}
	}
	placed := false
	for t, j := range idx {
		if r.rank[j] >= 0 {
			continue
		}
		nj := r.pos[j]
		if hasDiag && !placed && nj >= d {
			ibuf = append(ibuf, d)
			vbuf = append(vbuf, diag)
			placed = true
			if nj == d {
				continue
			}
		}
		ibuf = append(ibuf, nj)
		vbuf = append(vbuf, val[t])
	}
	if hasDiag && !placed {
		ibuf = append(ibuf, d)
		vbuf = append(vbuf, diag)
	}
	return ibuf, vbuf
}
