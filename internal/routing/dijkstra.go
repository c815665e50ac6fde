package routing

import (
	"errors"
	"fmt"

	"github.com/openspace-project/openspace/internal/topo"
)

// ErrNoPath is returned when the destination is unreachable under the cost
// function's usability constraints.
var ErrNoPath = errors.New("routing: no path")

// ErrUnknownNode is returned when an endpoint is not in the snapshot.
var ErrUnknownNode = errors.New("routing: unknown node")

// ShortestPath runs Dijkstra from src to dst on the snapshot under the cost
// function.
func ShortestPath(s *topo.Snapshot, src, dst string, cost CostFunc) (Path, error) {
	sr, si, di, err := acquire(s, src, dst, cost)
	if err != nil {
		return Path{}, err
	}
	defer sr.release()
	sr.next()
	if !sr.find(si, di) {
		return Path{}, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	return sr.materialize(sr.path, sr.dist[di]), nil
}
