package sim

import "math/bits"

// Hierarchical timer wheel over an event slab: the engine's event queue,
// ordered by (at, seq). At allocates strictly increasing seq, so events
// pushed at equal times pop in push order.
//
// Events live in a slab of fixed 256-event chunks, so an *Event handle
// never moves, and the wheel names each by a uint32 id (id 0 is nil).
// Every list the wheel keeps — a slot, the dispatch batch, the free list
// — is linked in place through Event.next: a slot and the batch are
// FIFOs, the free list a stack. Queueing an event allocates nothing once
// the slab holds the peak number of live events.
//
// The wheel divides the 64-bit virtual clock into eight byte-wide levels
// of 256 slots each, so the full Time range is representable and there is
// no overflow or re-hashing policy to tune. An event is filed at the
// level of the highest byte in which its timestamp differs from the
// wheel's cursor (level 0 when equal), at the slot indexed by that byte
// of the timestamp:
//
//	level(ev) = highestDifferingByte(ev.at, cur)
//	slot(ev)  = byte_level(ev.at)
//
// Each level keeps an occupancy bit per slot and a summary byte with a
// bit per non-zero occupancy word, so its first occupied slot is two
// TrailingZeros away and emptying a slot tells at once whether the level
// emptied.
//
// The cursor cur is a lower bound on every pending timestamp, advanced
// only when the engine commits to dispatching an event (popUntil), never
// by nextTime or a refused popUntil — RunUntil may stop at a horizon and
// later accept events between now and the wheel's former tentative
// minimum, so a cursor that crept forward past the horizon would reject
// legal schedules. popUntil therefore cascades a higher slot only when
// that slot's minimum is within the horizon.
//
// The filing rule yields two invariants that make ordering cheap:
//
//  1. Levels are totally ordered: every event at level l precedes every
//     event at level l+1 (their bytes above l match cur, and byte l of a
//     level-l event can only be >= cur's, while a level-(l+1) event
//     already exceeds cur at byte l+1). The minimum is always at the
//     lowest non-empty level.
//  2. Slots stay sequence-sorted without any sorting: a slot only
//     receives events either directly (At allocates strictly increasing
//     seq, so appends arrive in seq order) or by cascading a higher
//     slot, and a cascade only runs when every lower level is empty —
//     so cascaded events (in preserved seq order) always land in virgin
//     slots, and later direct inserts carry larger seqs.
//
// A level-0 slot therefore holds exactly one timestamp with its events
// already in dispatch order; popUntil lifts the whole slot into the
// dispatch batch by taking its list head (batched same-timestamp
// dispatch) and hands events out one by one. Callbacks scheduling more
// work at the same timestamp append to the now empty slot, which is
// re-lifted when the batch drains.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits  // 256 slots per level
	wheelLevels = 64 / wheelBits  // 8 levels cover the full Time range
	wheelOccW   = wheelSlots / 64 // occupancy bitmap words per level

	slabChunk = 256 // events per slab chunk
)

// eventList is a FIFO of events linked through Event.next; the zero
// value is empty.
type eventList struct{ head, tail uint32 }

type wheelLevel struct {
	slots [wheelSlots]eventList
	occ   [wheelOccW]uint64 // bit i set iff slots[i] non-empty
	sum   uint8             // bit w set iff occ[w] != 0
}

// setOcc marks slot idx occupied.
func (l *wheelLevel) setOcc(idx int) {
	w := idx / 64
	l.occ[w] |= 1 << (uint(idx) % 64)
	l.sum |= 1 << uint(w)
}

// clearOcc marks slot idx empty and reports whether the level emptied.
func (l *wheelLevel) clearOcc(idx int) bool {
	w := idx / 64
	if l.occ[w] &^= 1 << (uint(idx) % 64); l.occ[w] == 0 {
		l.sum &^= 1 << uint(w)
	}
	return l.sum == 0
}

// minOcc returns the lowest occupied slot index of a non-empty level.
func (l *wheelLevel) minOcc() int {
	w := bits.TrailingZeros8(l.sum)
	return w*64 + bits.TrailingZeros64(l.occ[w])
}

type timerWheel struct {
	cur    Time // lower bound on all pending timestamps
	count  int
	levels [wheelLevels]wheelLevel
	lvMask uint // bit l set iff level l has occupied slots

	// batch is the head of the dispatch batch: the rest of the level-0
	// slot being drained, all at timestamp cur and in seq order.
	batch uint32

	// The slab: event id i lives at chunks[(i-1)/slabChunk], at index
	// (i-1)%slabChunk. free heads the stack of recycled ids, and used
	// counts the ids ever handed out.
	chunks []*[slabChunk]Event
	free   uint32
	used   uint32
}

// ev returns the event with id id (non-zero).
func (w *timerWheel) ev(id uint32) *Event {
	return &w.chunks[(id-1)/slabChunk][(id-1)%slabChunk]
}

// alloc takes an event off the free list, or a fresh one from the slab,
// growing it by a chunk when every event in it is in use.
func (w *timerWheel) alloc() (uint32, *Event) {
	if id := w.free; id != 0 {
		ev := w.ev(id)
		w.free = ev.next
		return id, ev
	}
	if w.used%slabChunk == 0 {
		w.chunks = append(w.chunks, new([slabChunk]Event))
	}
	w.used++
	return w.used, w.ev(w.used)
}

// release drops ev's callback and puts it on the free list.
func (w *timerWheel) release(id uint32, ev *Event) {
	ev.fn = nil
	ev.next = w.free
	w.free = id
}

// levelOf returns the wheel level for timestamp at relative to cur.
func (w *timerWheel) levelOf(at Time) int {
	d := uint64(at ^ w.cur)
	if d == 0 {
		return 0
	}
	return (bits.Len64(d) - 1) / wheelBits
}

// push queues ev, whose id is id.
func (w *timerWheel) push(id uint32, ev *Event) {
	w.file(id, ev)
	w.count++
}

// file appends ev to the tail of its level's slot.
func (w *timerWheel) file(id uint32, ev *Event) {
	l := w.levelOf(ev.at)
	idx := int(uint8(ev.at >> (uint(l) * wheelBits)))
	lv := &w.levels[l]
	s := &lv.slots[idx]
	ev.next = 0
	if s.head == 0 {
		s.head = id
		lv.setOcc(idx)
		w.lvMask |= 1 << uint(l)
	} else {
		w.ev(s.tail).next = id
	}
	s.tail = id
}

// len returns the number of pending events (cancelled included).
func (w *timerWheel) len() int { return w.count }

// nextTime returns the minimum pending timestamp without advancing the
// cursor. At level 0 the slot index is the timestamp; at higher levels
// the minimum slot's list must be scanned.
func (w *timerWheel) nextTime() (Time, bool) {
	if w.batch != 0 {
		return w.cur, true
	}
	if w.lvMask == 0 {
		return 0, false
	}
	l := bits.TrailingZeros(w.lvMask)
	lv := &w.levels[l]
	idx := lv.minOcc()
	if l == 0 {
		return w.cur&^Time(wheelSlots-1) | Time(idx), true
	}
	return w.minAt(lv.slots[idx].head), true
}

// minAt returns the earliest timestamp in the non-empty list at head.
func (w *timerWheel) minAt(head uint32) Time {
	ev := w.ev(head)
	min := ev.at
	for ev.next != 0 {
		if ev = w.ev(ev.next); ev.at < min {
			min = ev.at
		}
	}
	return min
}

// popUntil removes and returns the minimum event if its timestamp is at
// most horizon, committing any cursor advance and cascades that entails.
// Otherwise it returns id 0 and changes nothing.
func (w *timerWheel) popUntil(horizon Time) (uint32, *Event) {
	for {
		if id := w.batch; id != 0 {
			if w.cur > horizon {
				return 0, nil
			}
			ev := w.ev(id)
			w.batch = ev.next
			w.count--
			return id, ev
		}
		if w.lvMask == 0 {
			return 0, nil
		}
		l := bits.TrailingZeros(w.lvMask)
		lv := &w.levels[l]
		idx := lv.minOcc()
		if l == 0 {
			// Commit the cursor to this slot's timestamp and lift the
			// whole same-timestamp list out as the dispatch batch.
			at := w.cur&^Time(wheelSlots-1) | Time(idx)
			if at > horizon {
				return 0, nil
			}
			w.cur = at
			w.batch = lv.slots[idx].head
			lv.slots[idx] = eventList{}
			if lv.clearOcc(idx) {
				w.lvMask &^= 1
			}
			continue
		}
		// The slot spans [lo, hi]. Refuse it if it begins past the horizon,
		// or if the horizon splits it and its earliest event is past it.
		shift := uint(l) * wheelBits
		lo := w.cur&^Time(1<<(shift+wheelBits)-1) | Time(idx)<<shift
		hi := lo | (1<<shift - 1)
		id := lv.slots[idx].head
		if lo > horizon || hi > horizon && w.minAt(id) > horizon {
			return 0, nil
		}
		// Cascade: advance the cursor into this slot's epoch (zeroing
		// the bytes below keeps it a lower bound) and refile the slot's
		// events; each lands at a strictly lower level with seq order
		// preserved, because all lower levels are empty right now.
		w.cur = lo
		lv.slots[idx] = eventList{}
		if lv.clearOcc(idx) {
			w.lvMask &^= 1 << uint(l)
		}
		for id != 0 {
			ev := w.ev(id)
			next := ev.next
			w.file(id, ev)
			id = next
		}
	}
}

// clear drops all state so the wheel retains no event references.
func (w *timerWheel) clear() {
	*w = timerWheel{}
}
