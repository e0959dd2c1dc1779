// The list schedulers' shared cost model. One estimator lives for one
// scheduling pass: it resolves the host pool to indices once, caches
// each host's power, and keeps a dense pool×pool table of route
// latency and bottleneck bandwidth filled on first use — so a pass
// pays at most one platform.Route lookup per host pair, where the
// estimates themselves run into millions (HEFT's mean transfer cost
// alone visits every ordered pool pair for every comm task). The
// transfer estimate latency + bytes/bottleneck is computed here and
// nowhere else.

package simdag

import (
	"fmt"

	"repro/internal/platform"
)

// hostRef is a host as the estimator sees it: its name and its index
// (-1 for the empty name, meaning "no placement yet"). Indices below
// the pool's distinct-host count address the route table; hosts met
// outside the pool get indices past it and fall back to platform.Route.
type hostRef struct {
	name string
	i    int
}

// routeEst is the transfer-relevant summary of one route.
type routeEst struct {
	lat, bw float64
	state   uint8 // routeUnknown (table entry not filled yet), routeLinks or routeFree
}

const (
	routeUnknown uint8 = iota
	routeLinks
	// routeFree: same host, no route, or an empty route. The estimate
	// is 0; a pair with no route fails when the transfer runs, not when
	// it is planned.
	routeFree
)

// estimator is the per-pass cost model of ScheduleHEFTStats and
// ScheduleMinMin.
type estimator struct {
	pf     *platform.Platform
	pool   []hostRef      // pool position → host (a repeated name maps to its first occurrence)
	index  map[string]int // host name → index
	power  []float64      // index → host power
	n      int            // distinct pool hosts: the table is n×n
	routes []routeEst     // routes[i*n+j] summarizes the route i → j
}

// newEstimator resolves a host pool. Every name must be a platform
// host.
func newEstimator(pf *platform.Platform, hosts []string) (*estimator, error) {
	e := &estimator{
		pf:    pf,
		pool:  make([]hostRef, len(hosts)),
		index: make(map[string]int, len(hosts)),
	}
	for k, h := range hosts {
		i, ok := e.index[h]
		if !ok {
			ph := pf.Host(h)
			if ph == nil {
				return nil, fmt.Errorf("simdag: unknown host %q", h)
			}
			i = e.add(h, ph.Power)
		}
		e.pool[k] = hostRef{h, i}
	}
	e.n = len(e.power)
	e.routes = make([]routeEst, e.n*e.n)
	return e, nil
}

// add registers a host under the next index.
func (e *estimator) add(name string, power float64) int {
	i := len(e.power)
	e.index[name] = i
	e.power = append(e.power, power)
	return i
}

// ref resolves a host name. A platform host outside the pool (a task
// pre-placed elsewhere) is registered past the pool's indices.
func (e *estimator) ref(name string) hostRef {
	if name == "" {
		return hostRef{i: -1}
	}
	i, ok := e.index[name]
	if !ok {
		i = e.add(name, e.pf.Host(name).Power)
	}
	return hostRef{name, i}
}

// compute estimates running flops on h.
func (e *estimator) compute(flops float64, h hostRef) float64 {
	return flops / e.power[h.i]
}

// transfer estimates moving bytes from src to dst (0 when an endpoint
// is unknown).
func (e *estimator) transfer(src, dst hostRef, bytes float64) float64 {
	if src.i < 0 || dst.i < 0 {
		return 0
	}
	return e.route(src, dst).time(bytes)
}

// meanTransfer is transfer averaged over the distinct ordered pairs of
// pool positions, summed in (i, j) order: HEFT's mean transfer cost,
// its hottest estimate, read straight off the table rows.
func (e *estimator) meanTransfer(bytes float64) float64 {
	sum, n := 0.0, 0
	for i, src := range e.pool {
		row := e.routes[src.i*e.n : (src.i+1)*e.n]
		for j, dst := range e.pool {
			if i == j {
				continue
			}
			r := row[dst.i]
			if r.state == routeUnknown {
				r = e.route(src, dst)
			}
			sum += r.time(bytes)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// route returns the summary of the route src → dst: from the table
// for pool hosts, filling the entry on first use, and straight from
// the platform otherwise.
func (e *estimator) route(src, dst hostRef) routeEst {
	if src.i >= e.n || dst.i >= e.n {
		return lookupRoute(e.pf, src.name, dst.name)
	}
	r := &e.routes[src.i*e.n+dst.i]
	if r.state == routeUnknown {
		*r = lookupRoute(e.pf, src.name, dst.name)
	}
	return *r
}

// time is the transfer estimate of bytes over the route: latency plus
// bytes over the bottleneck bandwidth, 0 for a free pair.
func (r routeEst) time(bytes float64) float64 {
	if r.state == routeFree {
		return 0
	}
	return r.lat + bytes/r.bw
}

// lookupRoute summarizes the platform route src → dst.
func lookupRoute(pf *platform.Platform, src, dst string) routeEst {
	if src == dst {
		return routeEst{state: routeFree}
	}
	route, err := pf.Route(src, dst)
	if err != nil || len(route.Links) == 0 {
		return routeEst{state: routeFree}
	}
	return routeEst{lat: route.Latency(), bw: route.Bottleneck(), state: routeLinks}
}
