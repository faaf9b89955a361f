package obs

import (
	"fmt"
	"testing"
)

// TestSubscribersRunInOrder: every subscriber sees every event, in
// subscription order, and a second subscriber leaves the first in place.
func TestSubscribersRunInOrder(t *testing.T) {
	var h Hook[int]
	h.Emit(1) // no subscribers: a no-op
	var got []int
	h.Add(func(e int) { got = append(got, e) })
	h.Add(func(e int) { got = append(got, -e) })
	h.Emit(2)
	h.Emit(3)
	if fmt.Sprint(got) != "[2 -2 3 -3]" {
		t.Fatalf("got %v, want [2 -2 3 -3]", got)
	}
}
