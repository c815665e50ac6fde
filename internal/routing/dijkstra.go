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

// Tree computes the full shortest-path tree from src: cost and predecessor
// for every reachable node: one Dijkstra run yields routes to all
// destinations.
func Tree(s *topo.Snapshot, src string, cost CostFunc) (map[string]float64, map[string]string, error) {
	sr, si, _, err := acquire(s, src, src, cost)
	if err != nil {
		return nil, nil, err
	}
	defer sr.release()
	sr.next()
	sr.search(si, -1)
	dist := map[string]float64{}
	prev := map[string]string{}
	for v := range sr.ix.Nodes {
		if !sr.reached(int32(v)) {
			continue
		}
		id := sr.ix.Nodes[v].ID
		dist[id] = sr.dist[v]
		if int32(v) != si {
			prev[id] = sr.ix.Nodes[sr.prev[v]].ID
		}
	}
	return dist, prev, nil
}
