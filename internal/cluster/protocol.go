package cluster

import (
	"encoding/json"

	"lodim/internal/slo"
)

// The peer protocol: two JSON-over-HTTP endpoints every clustered
// mapserve node serves alongside its public API. Both carry every
// workload kind — a map problem (the joint (S, Π) search) or a Pareto
// front problem — told apart by Problem.Kind.
//
//	POST /peer/v1/lookup — resolve a canonical problem: answer from the
//	  local cache or run the search (deduplicated with every other
//	  lookup of the same key, local or remote). The forwarder caches
//	  the result locally afterwards (forward-then-fill).
//	POST /peer/v1/fill — push a finished result into the receiver's
//	  cache. Used by a node that had to search locally because the
//	  owner was unreachable, so the owner converges once it returns.
//
// Both bodies carry the problem in *canonical* coordinates (the
// internal/service canonicalizer's output): receivers re-canonicalize
// and reject any body whose recomputed key disagrees, and revalidate
// every result before caching it, so a buggy or malicious peer cannot
// poison a cache.
const (
	LookupPath = "/peer/v1/lookup"
	FillPath   = "/peer/v1/fill"
)

// HopHeader counts peer-to-peer forwards. Origin requests have no hop
// header; a forwarded lookup carries "1". A receiving node always
// answers a peer lookup locally — it never re-forwards — so a value
// above MaxHops can only mean a forwarding loop (for example two nodes
// with disagreeing membership views each believing the other is the
// owner under a future protocol change) and is rejected with 508.
const (
	HopHeader = "X-Mapserve-Hop"
	MaxHops   = 1
)

// Workload kinds a Problem can carry. An absent kind is a map problem.
const (
	KindMap    = "map"
	KindPareto = "pareto"
)

// Problem identifies one canonical query: its kind, the canonical
// algorithm (bounds μ ascending, dependence columns sorted) plus the
// search parameters that are part of the cache identity. Key is the
// composite cache key the sender computed; receivers recompute it from
// the rest of the fields and reject mismatches. WireWeight belongs to
// map problems and TimeSlack to Pareto ones; a front's selection knobs
// (mode, lex order, weights) are deliberately absent — they pick from
// the front, they don't change it.
type Problem struct {
	Kind         string    `json:"kind,omitempty"`
	Key          string    `json:"key"`
	Bounds       []int64   `json:"bounds"`
	Dependencies [][]int64 `json:"dependencies"`
	Dims         int       `json:"dims"`
	MaxEntry     int64     `json:"max_entry,omitempty"`
	WireWeight   int64     `json:"wire_weight,omitempty"`
	MaxCost      int64     `json:"max_cost,omitempty"`
	TimeSlack    int64     `json:"time_slack,omitempty"`
}

// LookupRequest asks the receiver to resolve a canonical problem.
// TimeoutMS propagates the remaining deadline of the originating
// request so the owner bounds its search by the caller's budget, not
// its own default.
type LookupRequest struct {
	Problem
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Dispositions a lookup can resolve with, from the owner's point of
// view. The forwarding node reports them to its client as
// "peer_hit" / "peer_miss" / "peer_shared".
const (
	DispositionHit    = "hit"    // served from the owner's cache
	DispositionMiss   = "miss"   // the owner ran the search
	DispositionShared = "shared" // joined an in-progress search on the owner
)

// LookupResponse carries the canonical-coordinate result and how the
// owner produced it. Result is the kind's wire form: a WireResult for a
// map problem, a ParetoWireResult for a front.
type LookupResponse struct {
	Disposition string          `json:"disposition"`
	Result      json.RawMessage `json:"result"`
}

// WireResult is a map search result in canonical coordinates, flattened
// for transport. It carries exactly the fields the service layer needs
// to rebuild a cacheable result whose rendered responses are
// byte-identical to the owner's own.
type WireResult struct {
	S                  [][]int64 `json:"s"`
	Pi                 []int64   `json:"pi"`
	Time               int64     `json:"time"`
	Processors         int64     `json:"processors"`
	WireLength         int64     `json:"wire_length"`
	Cost               int64     `json:"cost"`
	Candidates         int       `json:"candidates"`
	Pruned             int       `json:"pruned"`
	ScheduleCandidates int       `json:"schedule_candidates"`
	Engine             string    `json:"engine"`
	ConflictMethod     string    `json:"conflict_method"`
}

// ParetoAxes is the wire width of an objective vector: time,
// processors, buffers, links — pinned in that order.
const ParetoAxes = 4

// ParetoWireMember is one front member in canonical coordinates.
type ParetoWireMember struct {
	S      [][]int64         `json:"s"`
	Pi     []int64           `json:"pi"`
	Vector [ParetoAxes]int64 `json:"vector"`
}

// ParetoWireResult is a full front flattened for transport, in the
// pinned deterministic order.
type ParetoWireResult struct {
	Members    []ParetoWireMember `json:"members"`
	TimeBound  int64              `json:"time_bound"`
	Candidates int                `json:"candidates"`
	Pruned     int                `json:"pruned"`
}

// FillRequest pushes a finished result (the kind's wire form, as in
// LookupResponse) into the receiver's cache.
type FillRequest struct {
	Problem
	Result json.RawMessage `json:"result"`
}

// FillResponse acknowledges a fill.
type FillResponse struct {
	Stored bool `json:"stored"`
}

// The status leg of the peer protocol is read-only: one GET every
// clustered (or standalone) node serves so a coordinator can merge a
// fleet-wide view without ssh.
//
//	GET /peer/v1/status — the node's observability snapshot: request
//	  counters, SLO engine state, tenant top-K and its view of the ring.
//
// The hop guard applies exactly as on the write legs: a status fan-out
// carries MaxHops, so a receiving node answers locally and never
// re-fans.
const StatusPath = "/peer/v1/status"

// TenantUsage is one tenant's accumulated usage counters. The service
// layer bounds tenant-label cardinality (LRU + an "other" overflow
// bucket), so a fleet merge sums a small, closed set.
type TenantUsage struct {
	Tenant          string `json:"tenant"`
	Requests        int64  `json:"requests"`
	CacheHits       int64  `json:"cache_hits"`
	SearchMillis    int64  `json:"search_ms"`
	QueueRejections int64  `json:"queue_rejections"`
}

// RingView is the node's own view of cluster membership and passive
// peer health. Disagreeing views across nodes are themselves a finding
// the fleet page surfaces.
type RingView struct {
	Self    string       `json:"self"`
	Members []string     `json:"members"`
	VNodes  int          `json:"vnodes"`
	Peers   []PeerStatus `json:"peers,omitempty"`
}

// NodeStatus is one node's observability snapshot, served at
// StatusPath and merged by /v1/cluster/status.
type NodeStatus struct {
	Node          string  `json:"node"`
	Status        string  `json:"status"` // "ok" | "degraded" | "shutting_down"
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Searches    int64 `json:"searches"`
	Rejected    int64 `json:"rejected"`
	Timeouts    int64 `json:"timeouts"`
	Failures    int64 `json:"failures"`

	SLO     *slo.Snapshot `json:"slo,omitempty"`
	Tenants []TenantUsage `json:"tenants,omitempty"`
	Ring    *RingView     `json:"ring,omitempty"`
}
