// Package topk provides a bounded top-k selector shared by every
// ranking hot path (search results, peer recommendation, session
// suggestion). Selecting k of n via a size-k min-heap is O(n log k)
// instead of the O(n log n) full sort.Slice the call sites used to pay,
// and allocates only the k-element buffer.
package topk

import "slices"

// Heap selects the k best items under a strict total order. The zero
// value is not usable; construct with New.
type Heap[T any] struct {
	k      int
	better func(a, b T) bool
	items  []T
}

// New returns a selector keeping the k best items pushed into it.
// better must be a strict total order ("a ranks strictly ahead of b");
// including a deterministic tie-break in better makes the selection
// byte-identical to a full sort followed by truncation. k <= 0 means
// unbounded: every pushed item is kept and Sorted returns them all.
func New[T any](k int, better func(a, b T) bool) *Heap[T] {
	cap := k
	if k <= 0 {
		cap = 16
	}
	return &Heap[T]{k: k, better: better, items: make([]T, 0, cap)}
}

// Push offers an item; it is kept only if it ranks among the k best so
// far. The heap is a min-heap on "better": the root is the worst kept
// item, evicted when a better candidate arrives.
func (h *Heap[T]) Push(x T) {
	if h.k <= 0 {
		h.items = append(h.items, x)
		return
	}
	if len(h.items) < h.k {
		h.items = append(h.items, x)
		h.up(len(h.items) - 1)
		return
	}
	if h.better(x, h.items[0]) {
		h.items[0] = x
		h.down(0)
	}
}

// Len reports how many items are currently kept.
func (h *Heap[T]) Len() int { return len(h.items) }

// Sorted drains the selector and returns the kept items best-first.
// The Heap must not be used after Sorted.
func (h *Heap[T]) Sorted() []T {
	slices.SortFunc(h.items, func(a, b T) int {
		switch {
		case h.better(a, b):
			return -1
		case h.better(b, a):
			return 1
		}
		return 0
	})
	return h.items
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		// Sift up while the child is worse than its parent (min-heap on
		// better: parent must be the worse of the two).
		if !h.better(h.items[parent], h.items[i]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.better(h.items[worst], h.items[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.better(h.items[worst], h.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
