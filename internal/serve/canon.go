package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"fspnet/internal/fsp"
	"fspnet/internal/fsplang"
	"fspnet/internal/network"
)

// Canonicalize parses, resolves, and canonicalizes one analyze request:
// req's defaulted fields (mode, predicates) are replaced by their
// resolved values, and the canonical text plus content digest come back.
// This is the routing primitive — the digest it returns is the cache key
// on whichever worker owns it on the ring — and the validation primitive:
// any error is a client error (the single-request handlers answer 400,
// the batch handler a per-item error record). A Canonicalizer caches its
// output; it never computes anything else.
func Canonicalize(req *AnalyzeRequest) (canonical, digest string, err error) {
	_, canonical, digest, err = canonicalizeNetwork(req)
	return canonical, digest, err
}

// canonicalizeNetwork is Canonicalize keeping the parsed network, which
// the analysis path needs. It reads only req's Network, Process, Mode and
// Predicates — the fields the Canonicalizer's memo key covers.
func canonicalizeNetwork(req *AnalyzeRequest) (*network.Network, string, string, error) {
	n, err := fsplang.ParseString(req.Network)
	if err != nil {
		return nil, "", "", fmt.Errorf("parsing network: %w", err)
	}
	if err := resolve(req, n); err != nil {
		return nil, "", "", err
	}
	canonical := fsplang.Format(n)
	return n, canonical, Digest(canonical, req.Process, req.Mode, req.Predicates), nil
}

// resolve validates the request against the parsed network and fixes the
// defaulted parameters, so the digest is computed over resolved values:
// "auto" and an explicit matching mode share cache entries.
func resolve(req *AnalyzeRequest, n *network.Network) error {
	if req.Process < 0 || req.Process >= n.Len() {
		return fmt.Errorf("process index %d out of range [0,%d)", req.Process, n.Len())
	}
	switch req.Mode {
	case "", "auto":
		if n.MaxClass() == fsp.ClassCyclic {
			req.Mode = "cyclic"
		} else {
			req.Mode = "acyclic"
		}
	case "acyclic", "cyclic":
	default:
		return fmt.Errorf("unknown mode %q (want auto, acyclic, or cyclic)", req.Mode)
	}
	switch req.Predicates {
	case "":
		req.Predicates = PredicatesAll
	case PredicatesAll, PredicatesReach:
	default:
		return fmt.Errorf("unknown predicates %q (want all or reach)", req.Predicates)
	}
	return nil
}

// Canonical is what canonicalizing one request produced, reduced to what
// serving it needs: the verdict digest, the lint digest of the canonical
// text, and the resolved mode and predicates. It holds no network text,
// so a memo of never-repeating networks costs a fixed size per entry.
type Canonical struct {
	Digest     string
	LintDigest string
	Mode       string
	Predicates string
}

// Canonicalizer memoizes Canonicalize in a bounded LRU, so a repeated
// request learns its digest without a parse or a Format. The key is the
// SHA-256 of the raw fields canonicalizeNetwork reads, and that function
// is deterministic (the mapiter and detrand analyzers guard it), so an
// entry is a pure function of its key and can never go stale. The key is
// as collision-resistant as the verdict digest the cache already trusts.
// Errors are never memoized: a bad request fails the same way every time.
// It is safe for concurrent use.
type Canonicalizer struct {
	memo         *lru[Canonical]
	hits, misses atomic.Int64
}

// NewCanonicalizer returns a memo of at most entries requests; ≤ 0 means
// the LRU default of 1024.
func NewCanonicalizer(entries int) *Canonicalizer {
	return &Canonicalizer{memo: newLRU[Canonical](entries)}
}

// Resolve canonicalizes req through the memo: it resolves req's Mode and
// Predicates in place, exactly as Canonicalize does, and returns the
// request's Canonical.
func (c *Canonicalizer) Resolve(req *AnalyzeRequest) (Canonical, error) {
	cr, err := c.resolve(req)
	return cr.Canonical, err
}

// Counts reports the memo's hits and misses since it was built. Every
// failed request counts as a miss.
func (c *Canonicalizer) Counts() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// resolve is Resolve keeping what a memo miss parsed and formatted on
// the way, so a cold request is parsed once.
func (c *Canonicalizer) resolve(req *AnalyzeRequest) (canonReq, error) {
	key := memoKey(req)
	if v, ok := c.memo.get(key); ok {
		c.hits.Add(1)
		req.Mode, req.Predicates = v.Mode, v.Predicates
		return canonReq{Canonical: v, raw: req.Network}, nil
	}
	c.misses.Add(1)
	n, text, digest, err := canonicalizeNetwork(req)
	if err != nil {
		return canonReq{}, err
	}
	v := Canonical{Digest: digest, LintDigest: LintDigest(text), Mode: req.Mode, Predicates: req.Predicates}
	c.memo.add(key, v)
	return canonReq{Canonical: v, raw: req.Network, n: n, text: text}, nil
}

// memoKey is the SHA-256 of the four fields canonicalizeNetwork reads,
// each string length-prefixed so that no two field tuples share an
// encoding. Timeout, budget and lint do not touch the digest and stay
// out of the key.
func memoKey(req *AnalyzeRequest) string {
	b := make([]byte, 0, 32+len(req.Network)+len(req.Mode)+len(req.Predicates))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(req.Network)))
	b = append(b, req.Network...)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(req.Process)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(req.Mode)))
	b = append(b, req.Mode...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(req.Predicates)))
	b = append(b, req.Predicates...)
	sum := sha256.Sum256(b)
	return string(sum[:])
}

// canonReq is one request past the canonicalize stage. After a memo miss
// it carries the parsed network and the canonical text; after a hit
// both are empty, and network and canonical derive them from the raw
// text only when a verdict or lint cache misses.
type canonReq struct {
	Canonical
	raw  string
	n    *network.Network
	text string
}

// network returns the parsed network, parsing the raw text again after a
// memo hit. That text parsed when the memo entry was made, so the error
// path cannot occur; it is handled all the same.
func (cr *canonReq) network() (*network.Network, error) {
	if cr.n == nil {
		n, err := fsplang.ParseString(cr.raw)
		if err != nil {
			return nil, fmt.Errorf("parsing network: %w", err)
		}
		cr.n = n
	}
	return cr.n, nil
}

// canonical returns the canonical text, formatting it again after a memo
// hit.
func (cr *canonReq) canonical() (string, error) {
	if cr.text == "" {
		n, err := cr.network()
		if err != nil {
			return "", err
		}
		cr.text = fsplang.Format(n)
	}
	return cr.text, nil
}
