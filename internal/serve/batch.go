package serve

import (
	"encoding/json"
	"net/http"
	"sync"

	"fspnet/internal/speclint"
	"fspnet/internal/verdictjson"
)

// BatchRequest is the POST /v1/analyze/batch JSON body: many analyze
// requests in one call. Items are independent — each carries its own
// network, parameters, and limits — and the response preserves their
// order exactly.
type BatchRequest struct {
	Items []AnalyzeRequest `json:"items"`
}

// BatchResponse is the POST /v1/analyze/batch reply. Items[i] answers
// Items[i] of the request. Uniques counts the distinct digests behind the
// items: duplicates (after canonicalization) are analyzed once and every
// copy shares the record.
type BatchResponse struct {
	Items   []AnalyzeResponse `json:"items"`
	Uniques int               `json:"uniques"`
}

// batchItemError synthesizes the per-item record for an item that never
// reached the solver — a parse/validation failure or a cap violation.
// Single-request callers get these as HTTP 400/413; inside a batch one
// bad item must not poison its neighbors, so the failure travels as a
// StatusError record in the item's slot.
func batchItemError(msg string) AnalyzeResponse {
	return AnalyzeResponse{Record: verdictjson.Record{Status: verdictjson.StatusError, Error: msg}}
}

// batchUnique is the per-distinct-digest work unit: the first item that
// produced the digest supplies the network and resolved limits.
type batchUnique struct {
	cr       canonReq
	req      AnalyzeRequest
	warnings []speclint.Diagnostic

	res    runResult
	hit    bool // served from cache or disk without running
	rec    verdictjson.Record
	hasRec bool
}

// handleBatch is many /v1/analyze calls in one request body. The
// pipeline: decode under the batch byte cap (413 past it), canonicalize
// and deduplicate the items by digest, answer what the cache and the
// persistent store already know, and charge each remaining unique miss
// against the worker pool individually — concurrently, but each under its
// own admission ticket, so a batch saturates the queue no harder than the
// same requests issued singly, and a full queue turns into per-item
// error records instead of a dropped batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(r, s.cfg.MaxBatchBytes)
	if err != nil {
		writeError(w, bodyErrorCode(err), "%v", err)
		return
	}
	var breq BatchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		writeError(w, http.StatusBadRequest, "decoding JSON body: %v", err)
		return
	}
	if len(breq.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(breq.Items) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch has %d items, limit is %d", len(breq.Items), s.cfg.MaxBatchItems)
		return
	}
	s.c.batches.Add(1)
	s.c.batchItems.Add(int64(len(breq.Items)))

	// Pass 1 — canonicalize every item, collecting the distinct digests in
	// first-occurrence order (deterministic for a given batch).
	out := make([]AnalyzeResponse, len(breq.Items))
	itemUnique := make([]int, len(breq.Items)) // -1: answered in pass 1
	uniques := []*batchUnique{}
	uniqueOf := map[string]int{}
	for i := range breq.Items {
		itemUnique[i] = -1
		req := breq.Items[i] // copy; resolve mutates
		if int64(len(req.Network)) > s.cfg.MaxBodyBytes {
			out[i] = batchItemError(ErrBodyTooLarge.Error())
			continue
		}
		cr, err := s.canon.resolve(&req)
		if err != nil {
			out[i] = batchItemError(err.Error())
			continue
		}
		if _, err := s.requestDeadline(req); err != nil {
			out[i] = batchItemError(err.Error())
			continue
		}
		s.c.requests.Add(1)
		var warnings []speclint.Diagnostic
		if req.Lint {
			warnings = s.warnings(&cr)
		}
		if u, ok := uniqueOf[cr.Digest]; ok {
			// Duplicate after canonicalization: share the unique's run.
			// Warnings depend only on the canonical text, so the copies are
			// identical anyway.
			itemUnique[i] = u
			continue
		}
		uniqueOf[cr.Digest] = len(uniques)
		itemUnique[i] = len(uniques)
		uniques = append(uniques, &batchUnique{cr: cr, req: req, warnings: warnings})
	}

	// Pass 2 — answer from cache/disk, then run the misses concurrently,
	// each charged individually against the pool.
	var wg sync.WaitGroup
	for _, u := range uniques {
		if rec, ok := s.lookup(u.cr.Digest); ok {
			s.c.hits.Add(1)
			u.rec, u.hasRec, u.hit = rec, true, true
			continue
		}
		wg.Add(1)
		go func(u *batchUnique) {
			defer wg.Done()
			if n, err := u.cr.network(); err != nil {
				u.res = runResult{rec: batchItemError(err.Error()).Record, outcome: runError}
			} else {
				deadline, _ := s.requestDeadline(u.req) // validated in pass 1
				u.res = s.runAnalysis(r.Context(), n, u.req, u.cr.Digest, deadline)
			}
			if u.res.outcome == runOK || u.res.outcome == runPartial || u.res.outcome == runError {
				u.rec, u.hasRec = u.res.rec, true
			}
		}(u)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client is gone; nothing to write
	}

	// Pass 3 — assemble in input order. The first occurrence of a unique
	// that ran reports the miss (cached=false); its duplicates report the
	// now-cached record (cached=true) — exactly what k single calls in the
	// same order would have seen.
	seen := make([]bool, len(uniques))
	for i := range out {
		ui := itemUnique[i]
		if ui < 0 {
			continue // answered in pass 1
		}
		u := uniques[ui]
		first := !seen[ui]
		seen[ui] = true
		resp := AnalyzeResponse{
			Digest: u.cr.Digest, Mode: u.req.Mode, Predicates: u.req.Predicates,
			Warnings: u.warnings,
		}
		switch {
		case u.hit:
			resp.Cached, resp.Record = true, u.rec
		case u.hasRec:
			resp.Cached = u.res.outcome == runOK && !first
			resp.Record = u.rec
		case u.res.outcome == runRejected:
			resp.Record = verdictjson.Record{
				Status: verdictjson.StatusError,
				Error:  "analysis queue is full; retry the item",
			}
		default: // runCanceled with the batch still connected: drain raced us
			resp.Record = verdictjson.Record{
				Status: verdictjson.StatusError,
				Error:  "analysis canceled",
			}
		}
		out[i] = resp
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: out, Uniques: len(uniques)})
}
