package service

// The cluster tier of the service: consistent-hash sharding of the
// canonical cache over a set of mapserve nodes (DESIGN.md §12).
//
// Every composite workload key (mapCacheKey, paretoCacheKey) has
// exactly one ring owner. A non-owner that misses its local cache
// forwards the problem to the owner over /peer/v1/lookup and caches the
// answer locally (forward-then-fill), so the owner's cache plus its
// singleflight group make each problem searched at most once
// cluster-wide, while repeat traffic on any node stays local after the
// first fill. When the owner is unreachable the non-owner degrades to a
// local search and then pushes the result to the owner over
// /peer/v1/fill, converging the cluster back onto its sharding
// invariant. Both routes serve every workload kind; the chain itself is
// in workload.go.
//
// Loop freedom is structural, not just header-enforced: only flights
// opened for origin requests may forward, and a flight opened by the
// peer-lookup handler always resolves locally — so a forward chain is
// at most origin → owner even when nodes disagree about membership. The
// cluster.HopHeader check in the HTTP layer (508 beyond
// cluster.MaxHops) is a belt-and-braces guard for buggy or
// misconfigured peers.
//
// Results received from peers are never trusted blindly: the receiver
// re-canonicalizes the wire problem and verifies the recomputed
// composite key. A map result is revalidated below (shape, ΠD > 0 and
// rank via schedule.NewMapping, the total time recomputed, and — within
// the enumeration ceiling — conflict-freeness re-decided); a front is
// re-certified in full (pareto.go).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/conflict"
	"lodim/internal/intmat"
	"lodim/internal/schedule"
)

// peerLookupGrace pads the forwarded deadline so an owner that finishes
// just inside the caller's budget can still deliver its answer.
const peerLookupGrace = 2 * time.Second

// ClusterConfig federates a Service with its peers.
type ClusterConfig struct {
	// Self identifies this node. Self.URL is the advertise address peers
	// use to reach it (scheme + host + port, no path).
	Self cluster.Member
	// Peers are the other members. An entry whose ID equals Self.ID is
	// skipped, so every node can be handed the same membership list.
	Peers []cluster.Member
	// VNodes is the virtual-node count per member
	// (0 selects cluster.DefaultVNodes).
	VNodes int
	// Client, when non-nil, overrides the peer HTTP client. The default
	// carries no global timeout — per-call contexts bound each exchange.
	Client *http.Client
	// FillTimeout bounds each best-effort cache-fill push to an owner
	// (0 selects 5s).
	FillTimeout time.Duration
}

// clusterState is the built form of ClusterConfig inside the Service.
type clusterState struct {
	self        cluster.Member
	ring        *cluster.Ring
	client      *cluster.Client
	httpc       *http.Client // raw client, for job-endpoint proxying
	health      *cluster.Health
	fillTimeout time.Duration
}

func newClusterState(cc *ClusterConfig) (*clusterState, error) {
	members := []cluster.Member{cc.Self}
	var peers []cluster.Member
	for _, p := range cc.Peers {
		if p.ID == cc.Self.ID {
			continue
		}
		members = append(members, p)
		peers = append(peers, p)
	}
	ring, err := cluster.NewRing(cc.VNodes, members...)
	if err != nil {
		return nil, err
	}
	httpc := cc.Client
	if httpc == nil {
		httpc = &http.Client{}
	}
	health := cluster.NewHealth(peers...)
	ft := cc.FillTimeout
	if ft <= 0 {
		ft = 5 * time.Second
	}
	return &clusterState{
		self:        cc.Self,
		ring:        ring,
		client:      cluster.NewClient(httpc, health),
		httpc:       httpc,
		health:      health,
		fillTimeout: ft,
	}, nil
}

// ClusterStatus is the cluster section of Status: identity, membership
// and passive peer health.
type ClusterStatus struct {
	Self    string               `json:"self"`
	Members []string             `json:"members"`
	VNodes  int                  `json:"vnodes"`
	Peers   []cluster.PeerStatus `json:"peers"`
}

func (c *clusterState) status() *ClusterStatus {
	ms := c.ring.Members()
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return &ClusterStatus{Self: c.self.ID, Members: ids, VNodes: c.ring.VNodes(), Peers: c.health.Snapshot()}
}

// toWire flattens a canonical-coordinate map result for the peer
// protocol. It carries exactly the fields buildMapResponse reads, so a
// result reconstructed on the far side renders byte-identically there.
func (mapWork) toWire(v any) any {
	res := v.(*schedule.JointResult)
	return &cluster.WireResult{
		S:                  matrixRows(res.Mapping.S),
		Pi:                 res.Mapping.Pi,
		Time:               res.Time,
		Processors:         res.Processors,
		WireLength:         res.WireLength,
		Cost:               res.Cost,
		Candidates:         res.Candidates,
		Pruned:             res.Pruned,
		ScheduleCandidates: res.ScheduleResult.Candidates,
		Engine:             res.ScheduleResult.Method,
		ConflictMethod:     res.ScheduleResult.Conflict.Method,
	}
}

// fromWire decodes a peer-supplied map result, revalidates it against
// the canonical algorithm and reassembles the JointResult the cache and
// response builder expect. Validation is the cache-poisoning defense:
// shapes, ΠD > 0 and rank via schedule.NewMapping, the total time
// recomputed from Π and μ, and — when the index set is within the
// enumeration ceiling — conflict-freeness re-decided locally.
// Optimality cannot be cheaply re-proved and is trusted; a buggy peer
// can therefore at worst serve a valid-but-suboptimal mapping, never an
// incorrect one.
func (mw mapWork) fromWire(_ context.Context, raw json.RawMessage) (any, error) {
	var w cluster.WireResult
	if err := decodeJSONBytes(raw, &w); err != nil {
		return nil, err
	}
	canonAlgo, dims := mw.canon.Algo, mw.dims
	n := canonAlgo.Dim()
	if len(w.S) != dims {
		return nil, fmt.Errorf("service: peer result has %d space rows, want %d", len(w.S), dims)
	}
	for i, r := range w.S {
		if len(r) != n {
			return nil, fmt.Errorf("service: peer result S row %d has %d entries, want %d", i+1, len(r), n)
		}
	}
	if len(w.Pi) != n {
		return nil, fmt.Errorf("service: peer result Π has %d entries, want %d", len(w.Pi), n)
	}
	sm := intmat.New(0, n)
	if dims > 0 {
		sm = intmat.FromRows(w.S...)
	}
	m, err := schedule.NewMapping(canonAlgo, sm, intmat.Vector(w.Pi))
	if err != nil {
		return nil, fmt.Errorf("service: peer result rejected: %w", err)
	}
	tt, err := m.TotalTimeChecked()
	if err != nil {
		return nil, fmt.Errorf("service: peer result rejected: %w", err)
	}
	if tt != w.Time {
		return nil, fmt.Errorf("service: peer result total time %d does not match recomputed %d", w.Time, tt)
	}
	if w.Processors < 1 || w.Time < 1 {
		return nil, fmt.Errorf("service: peer result has degenerate processors %d / time %d", w.Processors, w.Time)
	}
	if !canonAlgo.Set.SizeExceeds(maxIndexPoints) {
		cres, err := conflict.Decide(m.T, canonAlgo.Set)
		if err != nil {
			return nil, fmt.Errorf("service: peer result conflict re-check failed: %w", err)
		}
		if !cres.ConflictFree {
			return nil, fmt.Errorf("service: peer result is not conflict-free (witness %v)", cres.Witness)
		}
	}
	return &schedule.JointResult{
		SpaceResult: schedule.SpaceResult{
			Mapping:    m,
			Processors: w.Processors,
			WireLength: w.WireLength,
			Cost:       w.Cost,
			Candidates: w.Candidates,
			Pruned:     w.Pruned,
			Time:       w.Time,
		},
		ScheduleResult: &schedule.Result{
			Mapping:    m,
			Time:       w.Time,
			Conflict:   conflict.Result{ConflictFree: true, Method: w.ConflictMethod},
			Candidates: w.ScheduleCandidates,
			Method:     w.Engine,
		},
	}, nil
}

// size approximates the resident size of one cached map result: the
// key string, the mapping's integer payloads, and a fixed
// struct/pointer overhead. An estimate by design — the bytes gauge
// exists for sizing and shard-balance decisions, not accounting.
func (mw mapWork) size(v any) int64 {
	res := v.(*schedule.JointResult)
	b := int64(len(mw.key)) + 768
	if res.Mapping != nil {
		// S, Π and the assembled T ≈ 2(k−1)+2 rows of n int64s each.
		n := int64(res.Mapping.S.Cols())
		rows := int64(res.Mapping.S.Rows())
		b += 8 * n * (2*rows + 2)
	}
	return b
}
