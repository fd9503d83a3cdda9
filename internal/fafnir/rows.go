package fafnir

import (
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// This file holds the row hand-off. The host rearrangement reads each unique
// row of a hardware batch once (leafInputs); a caller that wants the rows a
// lookup read — the serving layer's cache fill — attaches a sink and copies
// them from the staged buffers instead of synthesizing them again.

// StagedRow is one row leafInputs read: the buffer store.VectorInto filled
// and the global index it filled it for. The buffer is the engine's scratch,
// valid until the hardware batch that read it is released.
type StagedRow struct {
	Index header.Index
	Row   tensor.Vector
}

// RowSink receives the rows one hardware batch's leaf reads staged, in
// ascending index order (the plan's dense row order), each under the index
// its buffer was filled for. The buffers are the engine's scratch: they are
// valid only during the call, and a sink copies what it keeps.
type RowSink func(rows []StagedRow)

// AttachRowSink hands every subsequent timed lookup's rows to sink, once per
// hardware batch, on the goroutine that called the lookup (nil detaches).
// The serving layer's cache fill uses it to copy rows the lookup already
// read instead of synthesizing them again; it never perturbs outputs or
// timing.
func (e *Engine) AttachRowSink(sink RowSink) { e.rowSink = sink }

// handRows passes the pass's staged rows to the attached sink while its
// scratch is still leased. A buffer goes out only under the index it was
// filled for — the rule the golden fold keeps — so a row staged under
// another index is withheld rather than mislabelled.
func (e *Engine) handRows(p *funcPass) {
	staged := p.sc.staged
	filled := func(r int) bool { return staged[r].Row != nil && staged[r].Index == p.plan.Rows[r] }
	rows := staged
	for r := range staged {
		if !filled(r) {
			rows = nil
			for r, st := range staged {
				if filled(r) {
					rows = append(rows, st)
				}
			}
			break
		}
	}
	e.rowSink(rows)
}

// RowCopies keeps copies of handed-out rows back to back in one slab that is
// reused across lookups, for a sink whose rows must outlive the call. The
// zero value is empty and ready to use.
type RowCopies struct {
	dim  int
	idx  []header.Index
	vals []float32
}

// Add copies rows in, after the ones already held. It is a RowSink.
func (rc *RowCopies) Add(rows []StagedRow) {
	for _, r := range rows {
		rc.dim = len(r.Row)
		rc.idx = append(rc.idx, r.Index)
		rc.vals = append(rc.vals, r.Row...)
	}
}

// Len reports how many rows are held.
func (rc *RowCopies) Len() int { return len(rc.idx) }

// Index reports the index row i was read for.
func (rc *RowCopies) Index(i int) header.Index { return rc.idx[i] }

// At returns row i under its index; the row is a view into the slab, valid
// until the next Add or Truncate.
func (rc *RowCopies) At(i int) StagedRow {
	return StagedRow{Index: rc.idx[i], Row: rc.vals[i*rc.dim : (i+1)*rc.dim : (i+1)*rc.dim]}
}

// Truncate keeps the first n rows; Truncate(0) empties the copies for reuse.
func (rc *RowCopies) Truncate(n int) {
	rc.idx = rc.idx[:n]
	rc.vals = rc.vals[:n*rc.dim]
}
