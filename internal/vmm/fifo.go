package vmm

// fifo is a queue with amortized O(1) push/pop that compacts its backing
// array instead of leaking it through re-slicing.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) pop() T {
	if q.len() == 0 {
		panic("vmm: pop from empty fifo")
	}
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		// Drained: rewind so an alternating push/pop reuses the front.
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

func (q *fifo[T]) peek() T {
	if q.len() == 0 {
		panic("vmm: peek at empty fifo")
	}
	return q.items[q.head]
}
