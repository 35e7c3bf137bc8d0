package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/cluster"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/worksheet"
)

// maxDistributedWorkers bounds the fleet size one request may name.
const maxDistributedWorkers = 64

// handleExploreDistributed serves POST /v1/explore/distributed: this
// instance coordinates the embedded explore request across the listed
// worker fleet via internal/cluster and answers with the merged
// result — bit-for-bit what a single node would return — plus fleet
// statistics. The coordinator may appear in its own worker list; the
// default ExploreLimit of 2 leaves an admission slot for its own
// shards, and 429 + Retry-After backs the scheduler off regardless.
//
// The caller's API key (if any) is forwarded to the workers, so on a
// tenanted fleet every shard is charged to the tenant that asked for
// the exploration.
func (s *Server) handleExploreDistributed(w http.ResponseWriter, r *http.Request) {
	clk, granted, ok := s.admit(w, r, s.admExplore, 1)
	if !ok {
		return
	}
	defer s.admExplore.release(granted)

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	body, ok := sc.readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.DistributedExploreRequest
	if err := dec.Decode(&req); err != nil {
		err = fmt.Errorf("%w: %v", worksheet.ErrSyntax, err)
		writeError(w, httpStatus(err), err)
		return
	}
	if len(req.Workers) == 0 || len(req.Workers) > maxDistributedWorkers {
		err := fmt.Errorf("%w: workers must list 1..%d ratd base URLs (got %d)",
			core.ErrInvalidParameters, maxDistributedWorkers, len(req.Workers))
		writeError(w, httpStatus(err), err)
		return
	}
	// The distributed ceiling is fleet-scale, far above the per-node
	// one: each shard re-passes the per-node ceiling on its worker.
	job, ok := prepareExplore(w, &req.Explore, 0, s.cfg.MaxDistributedCandidates, "distributed explorations")
	if !ok {
		return
	}

	coord, err := s.newCoordinator(req, apiKey(r))
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	res, stats, err := coord.Run(r.Context(), job)
	if err != nil {
		writeError(w, distStatus(err), err)
		return
	}
	clk.record(obs.StageKernel, res.Elapsed)

	clk.start()
	resp := api.DistributedExploreResponse{
		ExploreResponse: api.ExploreResponseFromCore(res, req.Explore.Frontier),
		Cluster:         stats.API(),
	}
	out, err := json.Marshal(resp)
	clk.stop(obs.StageEncode)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	clk.setHeader(w, r)
	writeBody(w, out, false)
}

// newCoordinator builds the per-request cluster coordinator over
// cluster.Fleet, with metrics on the server's registry.
func (s *Server) newCoordinator(req api.DistributedExploreRequest, key string) (*cluster.Coordinator, error) {
	shardTimeout := time.Duration(req.ShardTimeoutSeconds * float64(time.Second))
	workers, err := cluster.Fleet(req.Workers, key, shardTimeout)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		Workers:      workers,
		ShardSize:    req.ShardSize,
		MaxInflight:  req.MaxInflight,
		ShardTimeout: shardTimeout,
		Metrics:      s.reg,
	})
}

// distStatus maps a coordinator error to an HTTP status: fleet
// failures are 502 (the upstream workers misbehaved), everything else
// follows the ordinary mapping.
func distStatus(err error) int {
	if errors.Is(err, cluster.ErrFleet) {
		return http.StatusBadGateway
	}
	return httpStatus(err)
}
