package explore

// topK is a bounded best-K selection: a binary min-heap whose root is
// the worst retained candidate, so a streaming offer is O(1) when the
// newcomer loses to the root and O(log K) when it displaces it. The
// heap holds values, not pointers, and never grows past K, so the
// steady-state offer path allocates nothing.
type topK struct {
	items []Candidate
	k     int
	obj   Objective
}

func (t *topK) init(k int, obj Objective) {
	t.k = k
	t.obj = obj
	t.items = make([]Candidate, 0, k)
}

// full reports whether the heap holds K candidates, so that its root
// is the K-th best seen.
func (t *topK) full() bool { return len(t.items) == t.k }

// worse reports whether items[i] ranks below items[j]; it is the heap
// order (root = worst).
func (t *topK) worse(i, j int) bool {
	return t.obj.better(&t.items[j], &t.items[i])
}

// offer considers c for the retained set.
//
//rat:hotpath
func (t *topK) offer(c *Candidate) {
	if len(t.items) < t.k {
		t.items = append(t.items, *c)
		t.siftUp(len(t.items) - 1)
		return
	}
	if !t.obj.better(c, &t.items[0]) {
		return
	}
	t.items[0] = *c
	t.siftDown(0)
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			return
		}
		t.items[i], t.items[parent] = t.items[parent], t.items[i]
		i = parent
	}
}

func (t *topK) siftDown(i int) {
	n := len(t.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}
