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
	si, di, err := endpoints(s.Index(), src, dst)
	if err != nil {
		return Path{}, err
	}
	g := NewGraph(s, cost)
	defer g.Release()
	g.begin()
	g.next()
	if !g.find(si, di) {
		return Path{}, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	return g.materialize(g.path, g.dist[di]), nil
}
