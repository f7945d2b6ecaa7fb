package engine

// Bounded selection for the mover: a move reads one element of the
// destination's cell order (the top-K cut) and the first few of the
// source's (the cells that leave), so neither is sorted. Both helpers are
// deterministic, and under a strict total order — the mover's orders end
// on the cell key, unique per cell — yield exactly what a sort would.

// nthElement reorders s so that s[n] is the element sorting by less would
// put there, nothing before it sorts after it and nothing after it sorts
// before it: Hoare's selection around the middle element, linear on
// sorted, reversed and tie-heavy input. n must index s.
func nthElement[T any](s []T, n int, less func(a, b T) bool) {
	for lo, hi := 0, len(s)-1; lo < hi; {
		pivot, i, j := s[lo+(hi-lo)/2], lo, hi
		for i <= j {
			for less(s[i], pivot) {
				i++
			}
			for less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i, j = i+1, j-1
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi]; between j and i the pivot is in place.
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

// siftDown restores the min-heap property of h below position i: run from
// the last parent down to 0 it heapifies, and run at 0 after the last
// element took the root's place it completes a pop.
func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
