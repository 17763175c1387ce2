// Package modeltest is a model-based oracle harness for the mutation path:
// it replays seeded random operation sequences — insert, delete, update,
// select, aggregate, compaction, checkpoint, crash-recover — against a real
// index facade and, in lockstep, against a brute-force in-memory oracle, and
// fails on the first observable divergence.
//
// The harness is deliberately simple where the index is clever. The oracle
// is a flat slice of row tuples with O(rows) linear matching; it has no
// tombstones, no epochs, no WAL — deletion is removal, update is in-place
// rewrite. Any behavior the two disagree on is a bug in the index (or, once,
// in the model — which is itself informative).
//
// Sequences are deterministic in their seed, so a failure report is a
// (seed, op-index) pair that reproduces exactly. ShrinkPrefix bisects a
// failing sequence down to its shortest failing prefix for diagnosis.
//
//api:keep a test harness: its callers are other packages' tests
package modeltest

import (
	"fmt"
	"math/rand"
	"sort"

	flood "flood"
)

// OpKind enumerates the operations a generated sequence may contain.
type OpKind int

// The operation kinds. Mutations and reads verify against the oracle
// immediately; OpMaintain and OpCrash are facade lifecycle events (merge,
// relearn, checkpoint, kill-and-reopen) after which the harness re-verifies
// the full visible state.
const (
	OpInsert OpKind = iota
	OpDelete
	OpDeleteRows
	OpUpdate
	OpSelect
	OpAggregate
	OpMaintain
	OpCrash
)

// String names the op kind for failure reports.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpDeleteRows:
		return "delete-rows"
	case OpUpdate:
		return "update"
	case OpSelect:
		return "select"
	case OpAggregate:
		return "aggregate"
	case OpMaintain:
		return "maintain"
	case OpCrash:
		return "crash"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one step of a generated sequence.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Row is the tuple to insert (OpInsert only).
	Row []int64
	// Q is the predicate (OpDelete, OpDeleteRows, OpUpdate, OpSelect,
	// OpAggregate).
	Q flood.Query
	// Set holds the update assignments (OpUpdate only).
	Set []flood.Assignment
	// Step disambiguates maintenance flavors (OpMaintain only): facades
	// cycle through their lifecycle events (merge, relearn, checkpoint) by
	// Step modulo however many they have.
	Step int
}

// Caps declares which operations a facade supports; Generate emits only
// supported kinds. Every facade supports delete, select, and aggregate.
type Caps struct {
	// Insert permits OpInsert and OpUpdate (update re-inserts).
	Insert bool
	// Maintain permits OpMaintain (merge / relearn / checkpoint / rebuild).
	Maintain bool
	// Crash permits OpCrash (kill the handle, recover from disk).
	Crash bool
}

// GenConfig shapes a generated sequence.
type GenConfig struct {
	// Cols is the table width.
	Cols int
	// Ops is the sequence length.
	Ops int
	// Domain bounds generated values to [0, Domain).
	Domain int64
	// Caps gates which op kinds appear.
	Caps Caps
}

// Generate produces a deterministic op sequence from seed. Mutating
// predicates are kept narrow so sequences do not empty the table; reads use
// wider predicates for better coverage.
func Generate(seed int64, cfg GenConfig) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		ops = append(ops, genOp(rng, cfg, i))
	}
	return ops
}

func genOp(rng *rand.Rand, cfg GenConfig, step int) Op {
	roll := rng.Intn(100)
	switch {
	case cfg.Caps.Crash && roll < 1:
		return Op{Kind: OpCrash}
	case cfg.Caps.Maintain && roll < 3:
		return Op{Kind: OpMaintain, Step: rng.Intn(1 << 20)}
	case cfg.Caps.Insert && roll < 38:
		return Op{Kind: OpInsert, Row: genRow(rng, cfg)}
	case roll < 48:
		if rng.Intn(3) == 0 {
			return Op{Kind: OpDeleteRows, Q: genQuery(rng, cfg, cfg.Domain/16)}
		}
		return Op{Kind: OpDelete, Q: genQuery(rng, cfg, cfg.Domain/16)}
	case cfg.Caps.Insert && roll < 58:
		return Op{Kind: OpUpdate, Q: genQuery(rng, cfg, cfg.Domain/16), Set: genSet(rng, cfg)}
	case roll < 80:
		return Op{Kind: OpSelect, Q: genQuery(rng, cfg, cfg.Domain/4)}
	default:
		return Op{Kind: OpAggregate, Q: genQuery(rng, cfg, cfg.Domain/4)}
	}
}

func genRow(rng *rand.Rand, cfg GenConfig) []int64 {
	row := make([]int64, cfg.Cols)
	for c := range row {
		row[c] = rng.Int63n(cfg.Domain)
	}
	return row
}

// genQuery builds a conjunctive predicate over one or two dimensions with
// ranges about width wide.
func genQuery(rng *rand.Rand, cfg GenConfig, width int64) flood.Query {
	if width < 1 {
		width = 1
	}
	q := flood.NewQuery(cfg.Cols)
	dims := 1 + rng.Intn(2)
	for d := 0; d < dims; d++ {
		col := rng.Intn(cfg.Cols)
		lo := rng.Int63n(cfg.Domain)
		hi := lo + rng.Int63n(width)
		q = q.WithRange(col, lo, hi)
	}
	return q
}

func genSet(rng *rand.Rand, cfg GenConfig) []flood.Assignment {
	n := 1 + rng.Intn(2)
	set := make([]flood.Assignment, 0, n)
	for i := 0; i < n; i++ {
		set = append(set, flood.Assignment{Col: rng.Intn(cfg.Cols), Value: rng.Int63n(cfg.Domain)})
	}
	return set
}

// Oracle is the brute-force reference model: a flat multiset of live row
// tuples. All operations are linear scans; correctness over speed.
type Oracle struct {
	rows [][]int64
}

// NewOracle seeds the model with the base table's rows (copied).
func NewOracle(rows [][]int64) *Oracle {
	o := &Oracle{rows: make([][]int64, 0, len(rows))}
	for _, r := range rows {
		o.Insert(r)
	}
	return o
}

// Insert adds a copy of row to the live set.
func (o *Oracle) Insert(row []int64) {
	o.rows = append(o.rows, append([]int64(nil), row...))
}

// Delete removes every live row matching q and returns how many there were.
func (o *Oracle) Delete(q flood.Query) int64 {
	kept := o.rows[:0]
	var n int64
	for _, r := range o.rows {
		if q.Matches(r) {
			n++
			continue
		}
		kept = append(kept, r)
	}
	o.rows = kept
	return n
}

// Update rewrites every live row matching q with set applied and returns the
// match count. The index executes update as delete-plus-reinsert; in-place
// rewrite is multiset-equivalent.
func (o *Oracle) Update(q flood.Query, set []flood.Assignment) int64 {
	var n int64
	for _, r := range o.rows {
		if !q.Matches(r) {
			continue
		}
		n++
		for _, a := range set {
			r[a.Col] = a.Value
		}
	}
	return n
}

// Match returns the live rows matching q, in canonical sorted order.
func (o *Oracle) Match(q flood.Query) [][]int64 {
	var out [][]int64
	for _, r := range o.rows {
		if q.Matches(r) {
			out = append(out, r)
		}
	}
	SortTuples(out)
	return out
}

// Aggregate returns COUNT(*) and SUM(col 0) over the live rows matching q.
func (o *Oracle) Aggregate(q flood.Query) (count, sum int64) {
	for _, r := range o.rows {
		if q.Matches(r) {
			count++
			sum += r[0]
		}
	}
	return count, sum
}

// Len returns the live row count.
func (o *Oracle) Len() int { return len(o.rows) }

// SortTuples orders rows lexicographically, the canonical order both sides
// of a comparison are brought to.
func SortTuples(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for c := range a {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return false
	})
}

// EqualTuples reports whether two canonically sorted row sets are identical.
func EqualTuples(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				return false
			}
		}
	}
	return true
}
