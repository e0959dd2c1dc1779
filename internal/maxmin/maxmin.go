// Package maxmin implements the weighted, bounded Max-Min fairness
// solver at the heart of SURF ("allocate as much capacity to all tasks
// in a way that maximizes the minimum capacity allocation over all
// tasks" — SimGrid, HPDC'06).
//
// The model is a linear system: variables (one per simulated activity:
// a TCP flow, a computation, ...) consume capacity on constraints (one
// per resource: a network link, a CPU). A variable x with weight w that
// crosses constraint c contributes w·x to c's load, and c's load must
// not exceed its capacity. Variables may additionally carry an upper
// bound (e.g. the TCP window bound gamma/2RTT).
//
// Solve computes the max-min fair allocation by progressive filling:
// grow all variables' shares together until either a variable hits its
// bound (it is then frozen) or a constraint saturates (all its variables
// are then frozen), remove frozen usage, and repeat on the remainder.
//
// The solver is incremental (SimGrid's "selective update" / lazy lmm
// optimization): every mutation (Expand, SetWeight, SetBound,
// SetCapacity, Remove*, ...) marks only the touched variables and
// constraints dirty, and Solve re-runs progressive filling only on the
// connected components of the variable/constraint bipartite graph that
// contain a dirty element. Allocations in untouched components are
// carried over unchanged — max-min fairness decomposes exactly per
// component, so the combined solution is identical to a full solve.
// Solve reports the variables whose allocation actually changed via
// Updated, letting callers refresh only the affected activities.
//
// All per-solve bookkeeping (weighted loads, the active set, the
// component worklist) lives in scratch slices reused across solves, so
// a steady-state re-solve performs no heap allocation. The same holds
// for the activity churn itself: RemoveVariable scrubs and
// free-lists the Variable and its constraint elements, and
// NewVariable/Expand reuse them, so the add/solve/remove cycle of a
// simulated activity is allocation-free at steady state (disable with
// -tags=nopool; the paper counterpart is SimGrid's lmm system, and the
// key invariant is that pooled and unpooled builds are bit-identical).
package maxmin

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Variable is one activity receiving an allocation. Create variables
// with System.NewVariable and attach them to constraints with Expand.
type Variable struct {
	id     int
	idx    int     // position in sys.vars, maintained under index-swap removal
	weight float64 // sharing weight (a.k.a. priority); 0 disables the variable
	bound  float64 // upper bound on Value; <= 0 means unbounded
	value  float64 // the solution, valid after Solve

	cnsts []*elem

	// User cookie: the surf action owning this variable.
	Data any

	sys    *System
	fixed  bool
	dirtyQ int32  // position in sys.dirtyVars; -1 when not queued
	visit  uint64 // component-walk generation mark
}

// elem ties a variable to a constraint with a consumption multiplier.
// Its positions in both adjacency lists are tracked so detaching is
// O(1) per edge.
type elem struct {
	v      *Variable
	c      *Constraint
	factor float64 // capacity consumed per unit of variable value
	vIdx   int     // position in v.cnsts
	cIdx   int     // position in c.elems
}

// Constraint is one capacity-limited resource.
type Constraint struct {
	id       int
	idx      int // position in sys.cnsts, maintained under index-swap removal
	capacity float64
	elems    []*elem

	// shared reports whether concurrent variables share the capacity
	// (true, the normal case: links, CPUs) or each may use the full
	// capacity independently (false: SimGrid "fatpipe" links, modelling
	// e.g. the Internet backbone in some platform files).
	shared bool

	// User cookie: the surf resource owning this constraint.
	Data any

	sys    *System
	remCap float64 // scratch for Solve
	usage  float64 // post-solve total load
	dirty  bool    // queued in sys.dirtyCnsts
	visit  uint64  // component-walk generation mark
}

// component is one connected component of the dirty scope, as ranges
// into the solveVars/solveCnsts slices (collectScope appends each
// component contiguously).
type component struct {
	v0, v1 int // solveVars[v0:v1]
	c0, c1 int // solveCnsts[c0:c1]
}

// System holds variables and constraints and solves the allocation.
// The zero value is not usable; call NewSystem.
type System struct {
	vars    []*Variable
	cnsts   []*Constraint
	nextVID int
	nextCID int

	// Dirty tracking: mutated elements since the last Solve. allDirty
	// forces the next Solve to recompute every component from scratch.
	dirtyVars  []*Variable
	dirtyCnsts []*Constraint
	allDirty   bool

	visitGen uint64 // current component-walk generation

	// Scratch storage reused across solves (no steady-state allocation).
	loads      []float64 // weighted load per constraint, indexed by Constraint.idx
	solveVars  []*Variable
	solveCnsts []*Constraint
	comps      []component
	active     []*Variable
	oldVals    []float64 // pre-solve values of solveVars, for Updated
	updated    []*Variable
	queue      []*Constraint // component-walk worklist

	// Free lists for the activity churn (see "Object lifecycle &
	// pooling" in DESIGN.md): RemoveVariable recycles the variable and
	// its constraint elements, NewVariable/Expand reuse them, so the
	// steady-state add/remove cycle of a simulated activity performs no
	// heap allocation. Disabled under -tags=nopool.
	varPool  []*Variable
	elemPool []*elem

	// Observability (stats.go): solver work counters and pool
	// hit/miss scoreboards. Plain fields, always on.
	stats                     SolveStats
	varPoolHit, varPoolMiss   uint64
	elemPoolHit, elemPoolMiss uint64
}

// NewSystem returns an empty linear MaxMin system.
func NewSystem() *System { return &System{} }

func (s *System) touchVar(v *Variable) {
	if v.dirtyQ < 0 {
		v.dirtyQ = int32(len(s.dirtyVars))
		s.dirtyVars = append(s.dirtyVars, v)
	}
}

// dequeueVar drops a variable from the dirty queue (swap-remove,
// fixing the moved entry's index). Removal must dequeue: a recycled
// struct keeping its old queue slot would reseed the component walk in
// a different order than a fresh allocation, and the pooled build must
// stay bit-identical to the unpooled one.
func (s *System) dequeueVar(v *Variable) {
	if v.dirtyQ < 0 {
		return
	}
	last := len(s.dirtyVars) - 1
	moved := s.dirtyVars[last]
	s.dirtyVars[v.dirtyQ] = moved
	moved.dirtyQ = v.dirtyQ
	s.dirtyVars[last] = nil
	s.dirtyVars = s.dirtyVars[:last]
	v.dirtyQ = -1
}

func (s *System) touchCnst(c *Constraint) {
	if !c.dirty {
		c.dirty = true
		s.dirtyCnsts = append(s.dirtyCnsts, c)
	}
}

// NewConstraint adds a resource with the given capacity.
// Capacity must be non-negative; a zero-capacity constraint forces all
// its variables to zero.
func (s *System) NewConstraint(capacity float64) *Constraint {
	if capacity < 0 {
		capacity = 0
	}
	c := &Constraint{id: s.nextCID, idx: len(s.cnsts), capacity: capacity, shared: true, sys: s}
	s.nextCID++
	s.cnsts = append(s.cnsts, c)
	s.touchCnst(c)
	return c
}

// NewVariable adds an activity with the given sharing weight and upper
// bound (bound <= 0 means unbounded). Weight 0 makes the variable
// inactive: it receives value 0 and consumes nothing (used for
// suspended activities). The returned variable may be a recycled
// struct (see RemoveVariable) but always carries a fresh id and no
// state beyond the given parameters.
func (s *System) NewVariable(weight, bound float64) *Variable {
	v := s.grabVariable()
	v.id = s.nextVID
	v.idx = len(s.vars)
	v.weight = weight
	v.bound = bound
	v.sys = s
	s.nextVID++
	s.vars = append(s.vars, v)
	s.touchVar(v)
	return v
}

// Expand records that v consumes factor×value capacity on c. Expanding
// the same pair twice accumulates the factors (a route crossing the same
// link twice consumes twice the bandwidth on it).
func (s *System) Expand(c *Constraint, v *Variable, factor float64) {
	if factor <= 0 {
		return
	}
	s.touchVar(v)
	s.touchCnst(c)
	for _, e := range v.cnsts {
		if e.c == c {
			e.factor += factor
			return
		}
	}
	e := s.grabElem()
	e.v, e.c, e.factor = v, c, factor
	e.vIdx, e.cIdx = len(v.cnsts), len(c.elems)
	v.cnsts = append(v.cnsts, e)
	c.elems = append(c.elems, e)
}

// detachFromConstraint unlinks e from e.c.elems in O(1) by index swap.
func detachFromConstraint(e *elem) {
	c := e.c
	last := len(c.elems) - 1
	moved := c.elems[last]
	c.elems[e.cIdx] = moved
	moved.cIdx = e.cIdx
	c.elems[last] = nil
	c.elems = c.elems[:last]
}

// detachFromVariable unlinks e from e.v.cnsts in O(1) by index swap.
func detachFromVariable(e *elem) {
	v := e.v
	last := len(v.cnsts) - 1
	moved := v.cnsts[last]
	v.cnsts[e.vIdx] = moved
	moved.vIdx = e.vIdx
	v.cnsts[last] = nil
	v.cnsts = v.cnsts[:last]
}

// RemoveVariable detaches v from all its constraints and drops it from
// the system in O(degree). The struct (and its constraint elements)
// are scrubbed and recycled for a future NewVariable, so v must not be
// used afterwards — a later call on the stale pointer would act on
// whatever activity is reusing the struct.
func (s *System) RemoveVariable(v *Variable) {
	if v.sys != s {
		return
	}
	for i, e := range v.cnsts {
		s.touchCnst(e.c)
		detachFromConstraint(e)
		s.releaseElem(e)
		v.cnsts[i] = nil
	}
	v.cnsts = v.cnsts[:0] // keep the capacity for the next owner
	last := len(s.vars) - 1
	moved := s.vars[last]
	s.vars[v.idx] = moved
	moved.idx = v.idx
	s.vars[last] = nil
	s.vars = s.vars[:last]
	// Dequeue, scrub everything except the visit mark, and recycle.
	s.dequeueVar(v)
	v.sys = nil
	v.id, v.idx = 0, 0
	v.weight, v.bound, v.value = 0, 0, 0
	v.fixed = false
	v.Data = nil
	if poolingEnabled {
		s.varPool = append(s.varPool, v)
	}
	if len(s.vars) == 0 && len(s.cnsts) == 0 {
		// Nothing left to solve, but the books must still close.
		s.allDirty = true
	}
}

// RemoveConstraint drops c (and detaches it from all variables) in
// O(degree). The constraint struct itself is not recycled (resources
// live as long as their platform), but its elements are.
func (s *System) RemoveConstraint(c *Constraint) {
	if c.sys != s {
		return
	}
	for i, e := range c.elems {
		s.touchVar(e.v)
		detachFromVariable(e)
		s.releaseElem(e)
		c.elems[i] = nil
	}
	c.elems = nil
	last := len(s.cnsts) - 1
	moved := s.cnsts[last]
	s.cnsts[c.idx] = moved
	moved.idx = c.idx
	s.cnsts[last] = nil
	s.cnsts = s.cnsts[:last]
	c.sys = nil
	if len(s.vars) == 0 && len(s.cnsts) == 0 {
		s.allDirty = true
	}
}

// SetCapacity updates a resource capacity (trace events, failures).
func (s *System) SetCapacity(c *Constraint, capacity float64) {
	if capacity < 0 {
		capacity = 0
	}
	if c.capacity != capacity {
		c.capacity = capacity
		s.touchCnst(c)
	}
}

// SetWeight updates a variable's sharing weight (0 suspends it).
func (s *System) SetWeight(v *Variable, weight float64) {
	if v.weight != weight {
		v.weight = weight
		s.touchVar(v)
	}
}

// SetBound updates a variable's upper bound (<= 0 removes the bound).
func (s *System) SetBound(v *Variable, bound float64) {
	if v.bound != bound {
		v.bound = bound
		s.touchVar(v)
	}
}

// SetShared toggles capacity sharing on a constraint. Non-shared
// ("fatpipe") constraints only enforce the per-variable cap
// value×factor ≤ capacity instead of the sum.
func (s *System) SetShared(c *Constraint, shared bool) {
	if c.shared != shared {
		c.shared = shared
		s.touchCnst(c)
	}
}

// InvalidateAll marks the whole system dirty so the next Solve
// recomputes every component from scratch. Used by benchmarks to
// measure the full-recompute baseline and by tests as a reference
// solver; incremental and full solves yield identical allocations.
func (s *System) InvalidateAll() { s.allDirty = true }

// Value returns the variable's allocation from the last Solve.
func (v *Variable) Value() float64 { return v.value }

// Weight returns the variable's sharing weight.
func (v *Variable) Weight() float64 { return v.weight }

// Bound returns the variable's upper bound (<= 0 if unbounded).
func (v *Variable) Bound() float64 { return v.bound }

// Constraints returns the constraints the variable crosses.
func (v *Variable) Constraints() []*Constraint {
	out := make([]*Constraint, len(v.cnsts))
	for i, e := range v.cnsts {
		out[i] = e.c
	}
	return out
}

// Capacity returns the constraint's configured capacity.
func (c *Constraint) Capacity() float64 { return c.capacity }

// Usage returns the total load on the constraint after the last Solve.
func (c *Constraint) Usage() float64 { return c.usage }

// Shared reports whether the constraint's capacity is shared.
func (c *Constraint) Shared() bool { return c.shared }

// Variables returns the variables crossing this constraint.
func (c *Constraint) Variables() []*Variable {
	out := make([]*Variable, len(c.elems))
	for i, e := range c.elems {
		out[i] = e.v
	}
	return out
}

// Dirty reports whether the system changed since the last Solve.
func (s *System) Dirty() bool {
	return s.allDirty || len(s.dirtyVars) > 0 || len(s.dirtyCnsts) > 0
}

// Updated returns the variables whose allocation changed in the last
// Solve (including variables that joined or left a re-solved
// component). The slice is valid until the next Solve, and must be
// consumed before any RemoveVariable call: removal recycles the
// struct, so a stale entry may later denote a different activity
// (surf reads Updated immediately after Solve, inside one refresh).
func (s *System) Updated() []*Variable { return s.updated }

// Epsilon below which capacities/weights are treated as zero.
const eps = 1e-12

// Solve computes the max-min fair allocation by progressive filling and
// stores the result in each variable (read it with Value). Only the
// connected components containing a mutated variable or constraint are
// recomputed; allocations elsewhere are carried over. When nothing
// changed since the last Solve, it returns immediately.
//
// The algorithm maintains a "share" ratio r grown uniformly for all
// active variables (a variable's tentative value is r×weight). At each
// step it finds the smallest event among (a) a constraint saturating and
// (b) a variable reaching its bound, freezes the corresponding
// variables, subtracts their consumption, and iterates. Complexity is
// O((V+E)·rounds) over the re-solved components only.
func (s *System) Solve() {
	if !s.Dirty() {
		s.updated = s.updated[:0] // nothing changed
		return
	}
	s.solve()
	if shadowCheck {
		s.crossCheck()
	}
}

// collectScope fills s.solveVars/s.solveCnsts with the members of every
// connected component containing a dirty element (or the whole system
// when allDirty), clearing the dirty queues. Each component is laid out
// contiguously and its ranges recorded in s.comps, so components are
// solved independently. The walk is expressed as methods on scratch
// fields, not closures: collectScope runs on every solve, and escaping
// closures here would be a per-step allocation.
func (s *System) collectScope() {
	s.solveVars = s.solveVars[:0]
	s.solveCnsts = s.solveCnsts[:0]
	s.comps = s.comps[:0]
	s.queue = s.queue[:0]
	s.visitGen++
	if s.allDirty {
		for _, v := range s.vars {
			s.walkComponentFrom(v, nil)
		}
		for _, c := range s.cnsts {
			s.walkComponentFrom(nil, c)
		}
	} else {
		for _, v := range s.dirtyVars {
			s.walkComponentFrom(v, nil)
		}
		for _, c := range s.dirtyCnsts {
			s.walkComponentFrom(nil, c)
		}
	}
	for _, v := range s.dirtyVars {
		v.dirtyQ = -1
	}
	for _, c := range s.dirtyCnsts {
		c.dirty = false
	}
	s.dirtyVars = s.dirtyVars[:0]
	s.dirtyCnsts = s.dirtyCnsts[:0]
	s.allDirty = false
}

// scopeAddC marks a constraint visited, appending it to the scope and
// the walk worklist.
func (s *System) scopeAddC(c *Constraint) {
	if c.sys == s && c.visit != s.visitGen {
		c.visit = s.visitGen
		s.solveCnsts = append(s.solveCnsts, c)
		s.queue = append(s.queue, c)
	}
}

// scopeAddV marks a variable visited, appending it and queueing its
// constraints.
func (s *System) scopeAddV(v *Variable) {
	if v.sys == s && v.visit != s.visitGen {
		v.visit = s.visitGen
		s.solveVars = append(s.solveVars, v)
		for _, e := range v.cnsts {
			s.scopeAddC(e.c)
		}
	}
}

// walkComponentFrom walks the full component of one unvisited seed
// (variable or constraint) before returning, so components land
// contiguously in solveVars/solveCnsts; an already-visited (or
// detached) seed contributes nothing.
func (s *System) walkComponentFrom(v *Variable, c *Constraint) {
	v0, c0 := len(s.solveVars), len(s.solveCnsts)
	if v != nil {
		s.scopeAddV(v)
	} else {
		s.scopeAddC(c)
	}
	for len(s.queue) > 0 {
		cc := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, e := range cc.elems {
			s.scopeAddV(e.v)
		}
	}
	if len(s.solveVars) > v0 || len(s.solveCnsts) > c0 {
		s.comps = append(s.comps, component{v0: v0, v1: len(s.solveVars), c0: c0, c1: len(s.solveCnsts)})
	}
}

// solve re-runs progressive filling on the dirty components and
// records which variables changed value.
func (s *System) solve() {
	s.collectScope()
	sv, sc := s.solveVars, s.solveCnsts

	s.stats.Solves++
	s.stats.ScopeVars += uint64(len(sv))
	s.stats.Components += uint64(len(s.comps))
	if len(sv) > s.stats.MaxScopeVars {
		s.stats.MaxScopeVars = len(sv)
	}
	if len(s.comps) > s.stats.MaxComponents {
		s.stats.MaxComponents = len(s.comps)
	}

	// Size the constraint-indexed load scratch to the current system.
	if cap(s.loads) < len(s.cnsts) {
		s.loads = make([]float64, len(s.cnsts))
	}
	loads := s.loads[:cap(s.loads)]

	// Remember pre-solve values to report changes.
	oldVals := s.oldVals[:0]
	for _, v := range sv {
		oldVals = append(oldVals, v.value)
	}
	s.oldVals = oldVals

	active := s.active
	for _, cr := range s.comps {
		active = solveComponent(sv[cr.v0:cr.v1], sc[cr.c0:cr.c1], loads, active[:0])
	}
	s.active = active[:0]

	// Report variables whose allocation changed.
	updated := s.updated[:0]
	for i, v := range sv {
		if v.value != oldVals[i] {
			updated = append(updated, v)
		}
	}
	s.updated = updated
}

// solveComponent runs progressive filling on one connected component
// (sv/sc are the component's members) and stores values and usage on
// its variables and constraints. loads is the system-wide
// constraint-indexed scratch; active is the caller's scratch for the
// active set, returned for reuse.
func solveComponent(sv []*Variable, sc []*Constraint, loads []float64, active []*Variable) []*Variable {
	// Reset scope state; variables on a zero-capacity constraint (shared
	// or fatpipe alike) are fixed at 0 immediately.
	for _, v := range sv {
		v.fixed = true
		v.value = 0
		if v.weight <= eps || len(v.cnsts) == 0 {
			continue // inactive or unconstrained-with-no-resource
		}
		starved := false
		for _, e := range v.cnsts {
			if e.c.capacity <= eps {
				starved = true
				break
			}
		}
		if !starved {
			v.fixed = false
			active = append(active, v)
		}
	}
	for _, c := range sc {
		c.remCap = c.capacity
	}

	for len(active) > 0 {
		// loads[c.idx] = sum over active vars on c of weight*factor.
		for _, c := range sc {
			loads[c.idx] = 0
		}
		for _, v := range active {
			for _, e := range v.cnsts {
				loads[e.c.idx] += v.weight * e.factor
			}
		}

		// Candidate growth limit from constraints: r such that
		// r * weightedLoad == remCap (shared) or per-variable for fatpipes.
		minR := math.Inf(1)
		for _, c := range sc {
			if !c.shared {
				// Fatpipe: each variable independently limited by
				// capacity/(weight*factor); handled below per variable.
				continue
			}
			if wl := loads[c.idx]; wl > eps {
				if r := c.remCap / wl; r < minR {
					minR = r
				}
			}
		}
		// Candidate growth limit from variable bounds and fatpipes.
		for _, v := range active {
			if v.bound > 0 {
				if r := v.bound / v.weight; r < minR {
					minR = r
				}
			}
			for _, e := range v.cnsts {
				if !e.c.shared && e.factor > eps {
					if r := e.c.remCap / (v.weight * e.factor); r < minR {
						minR = r
					}
				}
			}
		}
		if math.IsInf(minR, 1) {
			// No limiting factor: variables are unconstrained. This
			// only happens when every active variable sits on fatpipe
			// constraints with infinite capacity; clamp to bound-less
			// infinity is meaningless, so freeze at +Inf guarded by eps.
			for _, v := range active {
				v.value = math.Inf(1)
				v.fixed = true
			}
			active = active[:0]
			break
		}
		if minR < 0 {
			minR = 0
		}

		// Mark everything that saturates at r = minR against the
		// round-start remaining capacities, then apply the freezes. The
		// two-phase sweep keeps the round order-independent and freezes
		// every variable of a saturating constraint in one pass.
		frozen := 0
		for _, v := range active {
			val := minR * v.weight
			atBound := v.bound > 0 && val >= v.bound-1e-9*math.Max(1, v.bound)
			atCnst := false
			for _, e := range v.cnsts {
				if e.c.shared {
					wl := loads[e.c.idx]
					if wl > eps && math.Abs(e.c.remCap/wl-minR) <= 1e-9*math.Max(1, minR) {
						atCnst = true
						break
					}
				} else if e.factor > eps {
					if math.Abs(e.c.remCap/(v.weight*e.factor)-minR) <= 1e-9*math.Max(1, minR) {
						atCnst = true
						break
					}
				}
			}
			if atBound || atCnst {
				if atBound && (v.bound < val || !atCnst) {
					val = v.bound
				}
				v.value = val
				v.fixed = true
				frozen++
			}
		}
		if frozen == 0 {
			// Numerical stall: freeze the variable with the smallest
			// weight to guarantee progress.
			var worst *Variable
			for _, v := range active {
				if worst == nil || v.weight < worst.weight {
					worst = v
				}
			}
			worst.value = minR * worst.weight
			worst.fixed = true
		}
		// Subtract frozen consumption and compact the active set.
		n := 0
		for _, v := range active {
			if !v.fixed {
				active[n] = v
				n++
				continue
			}
			for _, e := range v.cnsts {
				if e.c.shared {
					e.c.remCap -= v.value * e.factor
					if e.c.remCap < 0 {
						e.c.remCap = 0
					}
				}
			}
		}
		active = active[:n]
	}

	// Record usage on the re-solved constraints.
	for _, c := range sc {
		u := 0.0
		for _, e := range c.elems {
			u += e.v.value * e.factor
		}
		c.usage = u
	}
	return active[:0]
}

// Validate checks the current solution for feasibility and max-min
// optimality within tolerance tol and returns a list of violations
// (empty when the solution is sound). It is used by tests and available
// to callers as a debugging aid.
func (s *System) Validate(tol float64) []string {
	var problems []string
	for _, c := range s.cnsts {
		if !c.shared {
			for _, e := range c.elems {
				if e.v.value*e.factor > c.capacity+tol {
					problems = append(problems,
						fmt.Sprintf("fatpipe constraint %d: var %d uses %g > cap %g", //lint:allow hot-sprintf cold path: Validate is a debugging aid, never on the solve path
							c.id, e.v.id, e.v.value*e.factor, c.capacity))
				}
			}
			continue
		}
		u := 0.0
		for _, e := range c.elems {
			u += e.v.value * e.factor
		}
		if u > c.capacity+tol {
			problems = append(problems,
				fmt.Sprintf("constraint %d overloaded: usage %g > cap %g", c.id, u, c.capacity)) //lint:allow hot-sprintf cold path: Validate is a debugging aid, never on the solve path
		}
	}
	// Max-min optimality: every active variable must be saturated —
	// either at its bound or on at least one tight constraint.
	for _, v := range s.vars {
		if v.weight <= eps || len(v.cnsts) == 0 {
			continue
		}
		if v.bound > 0 && v.value >= v.bound-tol {
			continue
		}
		sat := false
		for _, e := range v.cnsts {
			c := e.c
			if !c.shared {
				if e.v.value*e.factor >= c.capacity-tol {
					sat = true
					break
				}
				continue
			}
			u := 0.0
			for _, ce := range c.elems {
				u += ce.v.value * ce.factor
			}
			if u >= c.capacity-tol {
				sat = true
				break
			}
		}
		if !sat {
			problems = append(problems,
				fmt.Sprintf("variable %d not saturated: value %g, bound %g", v.id, v.value, v.bound)) //lint:allow hot-sprintf cold path: Validate is a debugging aid, never on the solve path
		}
	}
	return problems
}

// String renders the system state for debugging.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "maxmin system: %d vars, %d constraints\n", len(s.vars), len(s.cnsts))
	cs := make([]*Constraint, len(s.cnsts))
	copy(cs, s.cnsts)
	sort.Slice(cs, func(i, j int) bool { return cs[i].id < cs[j].id })
	for _, c := range cs {
		fmt.Fprintf(&b, "  C%d cap=%g usage=%g shared=%v vars=[", c.id, c.capacity, c.usage, c.shared)
		for i, e := range c.elems {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "V%d×%g", e.v.id, e.factor)
		}
		b.WriteString("]\n")
	}
	vs := make([]*Variable, len(s.vars))
	copy(vs, s.vars)
	sort.Slice(vs, func(i, j int) bool { return vs[i].id < vs[j].id })
	for _, v := range vs {
		fmt.Fprintf(&b, "  V%d w=%g bound=%g value=%g\n", v.id, v.weight, v.bound, v.value)
	}
	return b.String()
}

// NVariables returns the number of variables in the system.
func (s *System) NVariables() int { return len(s.vars) }

// NConstraints returns the number of constraints in the system.
func (s *System) NConstraints() int { return len(s.cnsts) }
