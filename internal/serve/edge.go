package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"fspnet/internal/fsplang"
	"fspnet/internal/verdictjson"
)

// This file is the HTTP edge both tiers run: fspd's handlers and
// cmd/fsprouter's read, decode and refuse requests with these functions,
// so a refusal looks the same on the wire whichever tier makes it.

// ErrBodyTooLarge marks a request body over the configured byte cap; the
// handlers map it to 413 Content Too Large. Wrapped errors carry the
// limit that was exceeded.
var ErrBodyTooLarge = errors.New("request body too large")

type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON answers code with v in the shared verdict encoding.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = verdictjson.Encode(w, v)
}

// WriteError answers code with an {"error": ...} body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// BodyErrorCode maps a body-read or decode failure to its HTTP status:
// over-cap is 413, everything else 400.
func BodyErrorCode(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ReadBody drains r's body up to limit bytes; one byte over returns
// ErrBodyTooLarge (the 413 path).
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrBodyTooLarge, limit)
	}
	return body, nil
}

// ParseAnalyzeBody reads r's body under the byte cap and decodes it with
// DecodeAnalyzeBody.
func ParseAnalyzeBody(r *http.Request, limit int64) (AnalyzeRequest, error) {
	body, err := ReadBody(r, limit)
	if err != nil {
		return AnalyzeRequest{}, err
	}
	return DecodeAnalyzeBody(body, r.Header.Get("Content-Type"), r.URL.Query())
}

// DecodeAnalyzeBody decodes either encoding of an analyze request body —
// a JSON AnalyzeRequest, or a raw fsplang source with the parameters in
// the query string. cmd/fsprouter decodes the bytes it has already read
// with the same function the workers use, so the two tiers can never
// disagree about what a request means.
func DecodeAnalyzeBody(body []byte, contentType string, q url.Values) (AnalyzeRequest, error) {
	var req AnalyzeRequest
	if strings.HasPrefix(contentType, "application/json") {
		if err := json.Unmarshal(body, &req); err != nil {
			return AnalyzeRequest{}, fmt.Errorf("decoding JSON body: %w", err)
		}
	} else {
		// Raw fsplang body; parameters ride in the query string.
		req.Network = string(body)
		if v := q.Get("process"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil {
				return AnalyzeRequest{}, fmt.Errorf("bad process parameter %q", v)
			}
			req.Process = p
		}
		req.Mode = q.Get("mode")
		req.Predicates = q.Get("predicates")
		req.Timeout = q.Get("timeout")
		if v := q.Get("lint"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return AnalyzeRequest{}, fmt.Errorf("bad lint parameter %q", v)
			}
			req.Lint = b
		}
		if v := q.Get("budget"); v != "" {
			b, err := strconv.Atoi(v)
			if err != nil {
				return AnalyzeRequest{}, fmt.Errorf("bad budget parameter %q", v)
			}
			req.Budget = b
		}
	}
	return req, nil
}

// ReadBatch reads a /v1/analyze/batch body under the batch byte cap and
// decodes its items under the item cap. When it reports false it has
// already answered: 413 past either cap, 400 for a malformed or empty
// batch.
func ReadBatch(w http.ResponseWriter, r *http.Request, maxBytes int64, maxItems int) ([]AnalyzeRequest, bool) {
	body, err := ReadBody(r, maxBytes)
	if err != nil {
		WriteError(w, BodyErrorCode(err), "%v", err)
		return nil, false
	}
	var breq BatchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding JSON body: %v", err)
		return nil, false
	}
	if len(breq.Items) == 0 {
		WriteError(w, http.StatusBadRequest, "batch has no items")
		return nil, false
	}
	if len(breq.Items) > maxItems {
		WriteError(w, http.StatusRequestEntityTooLarge,
			"batch has %d items, limit is %d", len(breq.Items), maxItems)
		return nil, false
	}
	return breq.Items, true
}

// ItemError is the batch slot of an item that got no verdict: a
// validation failure or a cap violation (which a single request gets as
// 400 or 413), a full queue, or an unreachable ring. Inside a batch one
// bad item must not poison its neighbors, so the failure travels as a
// StatusError record in the item's slot.
func ItemError(msg string) AnalyzeResponse {
	return AnalyzeResponse{Record: verdictjson.Record{Status: verdictjson.StatusError, Error: msg}}
}

// LintKey parses network with the validation-free spec parser and returns
// its canonical text and lint digest: the key of a worker's lint cache,
// and the key the router routes a lint request by. The spec layer
// accepts every network the analyze parser does, plus ones it rejects
// (that is the point: an unmatched action comes back as a positioned
// diagnostic, not a 400).
func LintKey(network string) (canonical, digest string, err error) {
	spec, err := fsplang.ParseSpec(network)
	if err != nil {
		return "", "", fmt.Errorf("parsing network: %w", err)
	}
	canonical = fsplang.FormatSpec(spec)
	return canonical, LintDigest(canonical), nil
}

// Health is the GET /healthz handler of both tiers: 200 "ok" until Drain,
// 503 "draining" from then on, so load balancers stop routing here while
// the work already admitted finishes.
type Health struct{ draining atomic.Bool }

// Drain flips /healthz to 503 for good.
func (h *Health) Drain() { h.draining.Store(true) }

// ServeHTTP answers GET /healthz.
func (h *Health) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if h.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
