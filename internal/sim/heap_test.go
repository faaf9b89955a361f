package sim

// eventHeap is a binary min-heap ordered by (at, seq): the reference
// event queue the timer wheel is checked against (wheel_test.go). Its
// textbook sift-up/sift-down is a plain statement of the order the
// wheel's level and cascade invariants must realize.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap property (sift-up).
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down).
func (h *eventHeap) pop() *Event {
	s := *h
	n := len(s) - 1
	min := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && s.less(r, l) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return min
}

// nextTime returns the timestamp of the minimum event.
func (h eventHeap) nextTime() (Time, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}
