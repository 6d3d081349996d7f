package cluster

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"

	"fspnet/internal/serve"
)

// batchMember is one routed batch item in flight: its position in the
// client's batch, its canonicalized request, and the workers it has
// already been offered to this request.
type batchMember struct {
	idx    int
	req    serve.AnalyzeRequest
	digest string
	tried  map[int]bool
}

// handleBatch splits one batch across the ring. Each item canonicalizes
// at the edge (failures become per-item error records, exactly as on a
// worker); the survivors group by the worker that owns their digest,
// each group forwards as one sub-batch, and the sub-responses scatter
// back into input order. Items of equal digest always share a group —
// same digest, same ring walk — so worker-side deduplication still sees
// every duplicate and the summed unique counts are exact.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	items, ok := serve.ReadBatch(w, r, rt.cfg.MaxBatchBytes, rt.cfg.MaxBatchItems)
	if !ok {
		return
	}
	// A batch occupies one in-flight slot for its whole life: shedding
	// happens at the request boundary, and a capacity rejection is a 429
	// for the batch — never a spurious ring failover mid-split.
	if !rt.cluster.acquire() {
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusTooManyRequests, "router is at capacity (%d forwards in flight)", rt.cfg.Cluster.MaxInflight)
		rt.rejected.Add(1)
		return
	}
	defer rt.cluster.release()
	rt.batches.Add(1)
	rt.batchItems.Add(int64(len(items)))

	// Canonicalize every item with the worker's own functions; an item
	// the workers would reject never spends a forward.
	out := make([]serve.AnalyzeResponse, len(items))
	pending := make([]*batchMember, 0, len(items))
	for i, req := range items {
		if int64(len(req.Network)) > rt.cfg.MaxBodyBytes {
			out[i] = serve.ItemError(serve.ErrBodyTooLarge.Error())
			continue
		}
		c, err := rt.canon.Resolve(&req)
		if err != nil {
			out[i] = serve.ItemError(err.Error())
			continue
		}
		pending = append(pending, &batchMember{idx: i, req: req, digest: c.Digest, tried: map[int]bool{}})
	}
	rt.requests.Add(int64(len(pending)))

	// Forward rounds: group the pending items by their current best
	// worker, send each group as one sub-batch, and on a failed forward
	// push the group's items into the next round with that worker marked
	// tried. The per-item tried sets make progress monotone — len(workers)
	// rounds bound the loop.
	uniques := 0
	for len(pending) > 0 {
		groups := map[int][]*batchMember{}
		for _, m := range pending {
			wi, ok := rt.pickWorker(m.digest, m.tried)
			if !ok {
				resp := serve.ItemError(errAllWorkersDown.Error())
				resp.Digest, resp.Mode, resp.Predicates = m.digest, m.req.Mode, m.req.Predicates
				out[m.idx] = resp
				rt.cluster.errAll.Add(1)
				continue
			}
			groups[wi] = append(groups[wi], m)
		}
		// Deterministic dispatch order (map iteration is randomized).
		workers := make([]int, 0, len(groups))
		for wi := range groups {
			workers = append(workers, wi)
		}
		sort.Ints(workers)

		type groupResult struct {
			wi      int
			members []*batchMember
			resp    *serve.BatchResponse
		}
		results := make([]groupResult, len(workers))
		var wg sync.WaitGroup
		for gi, wi := range workers {
			wg.Add(1)
			go func(gi, wi int, members []*batchMember) {
				defer wg.Done()
				results[gi] = groupResult{wi: wi, members: members, resp: rt.forwardSubBatch(wi, members)}
			}(gi, wi, groups[wi])
		}
		wg.Wait()

		pending = pending[:0]
		for _, gr := range results {
			if gr.resp == nil {
				for _, m := range gr.members {
					m.tried[gr.wi] = true
					pending = append(pending, m)
				}
				continue
			}
			uniques += gr.resp.Uniques
			for k, m := range gr.members {
				out[m.idx] = gr.resp.Items[k]
			}
		}
	}
	serve.WriteJSON(w, http.StatusOK, serve.BatchResponse{Items: out, Uniques: uniques})
}

// pickWorker returns the first candidate for digest that this item has
// not already been offered to; false when the ring is exhausted.
func (rt *Router) pickWorker(digest string, tried map[int]bool) (int, bool) {
	cands, err := rt.cluster.candidates(digest, tried)
	if err != nil || len(cands) == 0 {
		return 0, false
	}
	return cands[0], true
}

// forwardSubBatch sends one group to one worker and decodes the
// sub-response. nil means the forward failed (transport error, 503, or
// a malformed reply) and the items should try the next worker on their
// rings.
func (rt *Router) forwardSubBatch(wi int, members []*batchMember) *serve.BatchResponse {
	sub := serve.BatchRequest{Items: make([]serve.AnalyzeRequest, len(members))}
	for i, m := range members {
		sub.Items[i] = m.req
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil
	}
	resp, err := rt.cluster.forwardTo(wi, http.MethodPost, "/v1/analyze/batch", "application/json", body)
	if err != nil {
		rt.cluster.failovers.Add(1)
		return nil
	}
	defer resp.Body.Close()
	var bresp serve.BatchResponse
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		return nil
	}
	if len(bresp.Items) != len(members) {
		return nil
	}
	rt.proxied.Add(1)
	return &bresp
}
