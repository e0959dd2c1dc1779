package surf

// actionHeap is an indexed 4-ary min-heap over the model's in-flight
// actions, keyed on each action's next event time (the end of its
// latency phase while that is being paid, its absolute completion
// estimate afterwards). It implements SimGrid's "lazy action
// management": NextEventTime is a peek and AdvanceTo pops only due
// actions, instead of min-scanning every action per step.
//
// Keys change only when an action's rate changes (reported by
// maxmin.System.Updated after a solve) or when its latency phase ends,
// so the heap is re-keyed incrementally: O(log n) per changed action
// rather than O(n) per step. Each entry carries its key inline — a
// sift compares contiguous heap entries instead of dereferencing
// scattered Action structs, which is most of the event machinery's
// cache traffic at 10k+ concurrent actions.
type actionHeap []heapEntry

// heapEntry pairs an action with its cached event key. The key is
// refreshed from eventKey() at push/fix time; between re-keys it is
// authoritative for ordering.
type heapEntry struct {
	key float64
	a   *Action
}

// eventKey is the heap key: the absolute time of the action's next
// event. Suspended or starved bandwidth-phase actions have estFinish
// +Inf and sink to the bottom.
func (a *Action) eventKey() float64 {
	if a.latUntil > 0 {
		return a.latUntil
	}
	return a.estFinish
}

func (h actionHeap) less(i, j int) bool { return h[i].key < h[j].key }

func (h actionHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].a.heapIdx = i
	h[j].a.heapIdx = j
}

// The heap is 4-ary: half the depth of a binary heap, and the four
// children of a node are adjacent in memory, so a sift touches fewer,
// better-clustered cache lines — measurable at 10k+ in-flight actions.
const heapArity = 4

func (h actionHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h actionHeap) down(i int) {
	n := len(h)
	for {
		l := heapArity*i + 1
		if l >= n {
			break
		}
		m := l
		hi := l + heapArity
		if hi > n {
			hi = n
		}
		for c := l + 1; c < hi; c++ {
			if h.less(c, m) {
				m = c
			}
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
}

// push inserts a (which must not be in the heap) and records its index.
func (h *actionHeap) push(a *Action) {
	a.heapIdx = len(*h)
	*h = append(*h, heapEntry{key: a.eventKey(), a: a})
	h.up(a.heapIdx)
}

// fix re-reads the key of h[i]'s action and restores the invariant.
func (h actionHeap) fix(i int) {
	h[i].key = h[i].a.eventKey()
	h.up(i)
	h.down(i)
}

// remove deletes h[i] from the heap and clears its index.
func (h *actionHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	a := old[i].a
	if i != n {
		old.swap(i, n)
	}
	old[n] = heapEntry{} // release for the collector
	*h = old[:n]
	if i != n {
		(*h).fix(i)
	}
	a.heapIdx = -1
}

// popMin removes and returns the action with the earliest event.
func (h *actionHeap) popMin() *Action {
	a := (*h)[0].a
	h.remove(0)
	return a
}
