package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// DecodeLookupReference is the referee decodeLookup is held to: the
// reflection decode it replaced, a json.Decoder into a LookupRequest with
// unknown fields refused and only whitespace allowed after the object.
func (s *Server) DecodeLookupReference(body io.Reader) (call Request, timeout time.Duration, err error) {
	var req LookupRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err = dec.Decode(&req); err != nil {
		return call, 0, fmt.Errorf("serve: bad request body: %w", err)
	}
	if _, err = dec.Token(); err != io.EOF {
		return call, 0, fmt.Errorf("serve: bad request body: trailing data after the request object")
	}
	if call.Op, err = tensor.ParseOp(req.Op); err != nil {
		return call, 0, err
	}
	if call.Priority, err = ParsePriority(req.Priority); err != nil {
		return call, 0, err
	}
	if call.Queries, err = s.parseQueries(&req); err != nil {
		return call, 0, err
	}
	if req.TimeoutMS < 0 || int64(req.TimeoutMS) > maxTimeoutMS {
		return call, 0, fmt.Errorf("serve: timeout_ms %d out of range [0,%d]", req.TimeoutMS, maxTimeoutMS)
	}
	if req.TimeoutMS == 0 {
		return call, s.cfg.DefaultTimeout, nil
	}
	return call, time.Duration(req.TimeoutMS) * time.Millisecond, nil
}

// parseQueries validates the wire request and builds the engine queries.
func (s *Server) parseQueries(req *LookupRequest) ([]embedding.Query, error) {
	var raw [][]uint64
	switch {
	case len(req.Indices) > 0 && len(req.Queries) > 0:
		return nil, fmt.Errorf("serve: set either indices or queries, not both")
	case len(req.Indices) > 0:
		raw = [][]uint64{req.Indices}
	case len(req.Queries) > 0:
		raw = req.Queries
	default:
		return nil, fmt.Errorf("serve: request carries no queries")
	}
	if limit := maxRequestBatches * s.cfg.BatchCapacity; len(raw) > limit {
		return nil, fmt.Errorf("serve: request carries %d queries, limit is %d", len(raw), limit)
	}
	queries := make([]embedding.Query, len(raw))
	for qi, idxs := range raw {
		if len(idxs) == 0 {
			return nil, fmt.Errorf("serve: query %d is empty", qi)
		}
		set := make([]header.Index, len(idxs))
		for i, idx := range idxs {
			if idx >= s.totalRows {
				return nil, fmt.Errorf("serve: query %d index %d out of range [0,%d)", qi, idx, s.totalRows)
			}
			set[i] = header.Index(idx)
		}
		queries[qi] = embedding.Query{Indices: header.NewIndexSet(set...)}
	}
	return queries, nil
}
