// Package remote distributes the evaluation sweep across worker
// daemons. It is the second execution backend behind the
// runner.Executor seam (after the bounded pool): the coordinator-side
// Remote routes each cell to a worker by rendezvous-hashing the same
// FNV content hash the durable store records per cell, and the worker
// recomputes the cell from its key alone — cells are pure functions of
// their content key, so results are location-transparent and a
// distributed sweep is byte-identical to a serial one.
//
// The wire protocol is deliberately small JSON-over-HTTP: one POST per
// cell carrying the canonical key fields plus the coordinator's
// engine/protocol version stamp, one response carrying the CellResult
// (value + virtual-time cost). A version mismatch between coordinator
// and worker is a hard typed refusal (*VersionError) — two engine
// versions may simulate the same key to different numbers, and the
// contract is "never a wrong answer", so the sweep aborts instead of
// mixing them.
package remote

import (
	"fmt"

	"tooleval/internal/runner"
)

// Endpoint paths served by a worker daemon.
const (
	// CellsPath accepts a CellRequest per POST and answers with a
	// CellResponse.
	CellsPath = "/v1/cells"
	// HealthPath answers 200 while the worker is serving.
	HealthPath = "/healthz"
	// StatsPath reports the worker's engine version, uptime, and cache
	// counters as JSON.
	StatsPath = "/statsz"
)

// ProtocolVersion stamps the wire schema itself, separately from the
// simulation engine version: an engine bump invalidates results, a
// protocol bump invalidates the conversation.
const ProtocolVersion = 1

// CellRequest is the body of POST /v1/cells: the canonical content-key
// fields of one cell plus the coordinator's version stamps. The worker
// refuses (409, kind "version_mismatch") unless both stamps match its
// own — equal keys only guarantee equal results within one engine
// version.
type CellRequest struct {
	Engine   uint64 `json:"engine_version"`
	Protocol int    `json:"protocol_version"`

	Platform string  `json:"platform"`
	Tool     string  `json:"tool"`
	Bench    string  `json:"bench"`
	Procs    int     `json:"procs"`
	Size     int     `json:"size"`
	Scale    float64 `json:"scale"`
}

// requestFor builds the wire form of key under the given engine stamp.
// Scale rides as a plain JSON number: Go's encoder emits the shortest
// round-trip form of a float64, so the decoded key hashes identically.
func requestFor(key runner.Key, engine uint64) CellRequest {
	return CellRequest{
		Engine:   engine,
		Protocol: ProtocolVersion,
		Platform: key.Platform,
		Tool:     key.Tool,
		Bench:    key.Bench,
		Procs:    key.Procs,
		Size:     key.Size,
		Scale:    key.Scale,
	}
}

// key reassembles the content key the request names.
func (q CellRequest) key() runner.Key {
	return runner.Key{
		Platform: q.Platform,
		Tool:     q.Tool,
		Bench:    q.Bench,
		Procs:    q.Procs,
		Size:     q.Size,
		Scale:    q.Scale,
	}
}

// CellResponse is the 200 body of POST /v1/cells. Err carries a
// deterministic cell error (the cell computed, to a failure — the same
// failure every engine of this version computes); it is a successful
// RPC, not a worker fault, and the coordinator memoizes it like a
// local cell error instead of failing over.
type CellResponse struct {
	Value     float64 `json:"value"`
	VirtualNS int64   `json:"virtual_ns"`
	Err       string  `json:"err,omitempty"`
}

// refusal is the JSON body of every non-200 the worker writes.
type refusal struct {
	Error    string `json:"error"`
	Kind     string `json:"kind,omitempty"`
	Engine   uint64 `json:"engine_version,omitempty"`
	Protocol int    `json:"protocol_version,omitempty"`
}

const kindVersionMismatch = "version_mismatch"

// VersionError is the typed refusal for a coordinator/worker version
// disagreement: the worker would compute (or has cached) cells under a
// different simulation engine or wire schema, and mixing those results
// into one sweep could be silently wrong. Match with errors.As; there
// is no failover and no retry — fix the deployment.
type VersionError struct {
	// Node is the worker that refused, as configured on the coordinator.
	Node string
	// CoordinatorEngine/WorkerEngine are the sim.EngineVersion stamps on
	// each side.
	CoordinatorEngine, WorkerEngine uint64
	// CoordinatorProtocol/WorkerProtocol are the wire-schema stamps.
	CoordinatorProtocol, WorkerProtocol int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("remote: worker %s refused: version mismatch (coordinator engine=%d protocol=%d, worker engine=%d protocol=%d)",
		e.Node, e.CoordinatorEngine, e.CoordinatorProtocol, e.WorkerEngine, e.WorkerProtocol)
}
