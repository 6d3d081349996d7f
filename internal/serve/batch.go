package serve

import (
	"net/http"
	"sync"
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

// handleBatch is many /v1/analyze calls in one request body, each item
// through the same prepare and answer stages as a single call. The body
// decodes under the batch caps (413 past them); an item that fails
// prepare, or whose network is over the body cap, gets an error record in
// its slot. The first item of each digest is answered — a hit inline, a
// miss on a goroutine under its own admission ticket, so a batch
// saturates the queue no harder than the same requests issued singly, and
// a full queue turns into per-item error records instead of a dropped
// batch. A later item of the same digest copies the first one's response,
// cached when the first was a hit or a completed run: what the same
// single calls in input order would have seen, for a duplicate that
// repeats the first one's lint flag and limits.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqs, ok := ReadBatch(w, r, s.cfg.MaxBatchBytes, s.cfg.MaxBatchItems)
	if !ok {
		return
	}
	s.c.batches.Add(1)
	s.c.batchItems.Add(int64(len(reqs)))

	out := make([]AnalyzeResponse, len(reqs))
	items := make([]*item, len(reqs)) // nil where out holds an error record
	first := map[string]*item{}       // digest → the item that answers it
	var wg sync.WaitGroup
	for i, req := range reqs {
		if int64(len(req.Network)) > s.cfg.MaxBodyBytes {
			out[i] = ItemError(ErrBodyTooLarge.Error())
			continue
		}
		it, err := s.prepare(req)
		if err != nil {
			out[i] = ItemError(err.Error())
			continue
		}
		items[i] = it
		if _, ok := first[it.resp.Digest]; !ok {
			first[it.resp.Digest] = it
			s.answer(r.Context(), it, &wg)
		}
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client is gone; nothing to write
	}
	for i, it := range items {
		if it == nil {
			continue
		}
		f := first[it.resp.Digest]
		out[i] = f.resp
		if it != f {
			out[i].Cached = f.outcome == cacheHit || f.outcome == runOK
		}
	}
	WriteJSON(w, http.StatusOK, BatchResponse{Items: out, Uniques: len(first)})
}
