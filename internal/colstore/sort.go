package colstore

// SortScratch holds the second buffers RadixSort scatters into, so a caller
// sorting many slices (one per grid cell) allocates them once. The zero value
// is ready to use; a scratch serves one sort at a time.
type SortScratch struct {
	keys []int64
	rows []int32
}

// radixInsertionMax is the largest slice RadixSort hands to insertion sort:
// below it a byte pass's 256-entry histogram and prefix sum cost more than
// the quadratic sort.
const radixInsertionMax = 64

// RadixSort sorts keys ascending and, when rows is non-nil (it must then be
// as long as keys), moves rows[i] with keys[i]. The sort is stable: entries
// with equal keys keep their input order. It compares nothing: keys are
// ordered by the bytes of their offset from the smallest key, least
// significant byte first, and a byte every key shares — all the high bytes of
// a column much narrower than int64, which is most columns — costs no pass.
// Taking the offset from the minimum also orders negative keys without a
// sign fix-up. Keys alone that span less than their count are counted
// instead of scattered.
func RadixSort(keys []int64, rows []int32, s *SortScratch) {
	n := len(keys)
	if n <= radixInsertionMax {
		insertionSort(keys, rows)
		return
	}
	// Sorted input — a column stored in key order, a cell a rebuild left
	// untouched — is done after one look; anything else leaves this loop at
	// its first descent.
	i := 1
	for i < n && keys[i-1] <= keys[i] {
		i++
	}
	if i == n {
		return
	}
	minV, maxV := keys[0], keys[0]
	for _, k := range keys[1:] {
		minV, maxV = min(minV, k), max(maxV, k)
	}
	base := uint64(minV)
	span := uint64(maxV) - base
	if rows == nil && span < uint64(n) {
		countingSort(keys, base, int(span)+1)
		return
	}

	// Every pass's histogram in one read of the keys.
	digits := 0
	for ; digits < 8 && span>>(8*uint(digits)) != 0; digits++ {
	}
	var hist [8][256]uint32
	for _, k := range keys {
		u := uint64(k) - base
		for d := 0; d < digits; d++ {
			hist[d][uint8(u>>(8*uint(d)))]++
		}
	}

	if cap(s.keys) < n {
		s.keys = make([]int64, n)
	}
	srcK, dstK := keys, s.keys[:n]
	var srcR, dstR []int32
	if rows != nil {
		if cap(s.rows) < n {
			s.rows = make([]int32, n)
		}
		srcR, dstR = rows, s.rows[:n]
	}
	for d := 0; d < digits; d++ {
		h := &hist[d]
		shift := 8 * uint(d)
		if h[uint8((uint64(srcK[0])-base)>>shift)] == uint32(n) {
			continue // every key has this byte
		}
		var sum uint32
		for b := range h {
			h[b], sum = sum, sum+h[b]
		}
		if rows == nil {
			for _, k := range srcK {
				b := uint8((uint64(k) - base) >> shift)
				dstK[h[b]] = k
				h[b]++
			}
		} else {
			for i, k := range srcK {
				b := uint8((uint64(k) - base) >> shift)
				p := h[b]
				h[b] = p + 1
				dstK[p] = k
				dstR[p] = srcR[i]
			}
		}
		srcK, dstK = dstK, srcK
		srcR, dstR = dstR, srcR
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(rows, srcR)
	}
}

// insertionSort is RadixSort for short slices; moving only past strictly
// greater keys keeps it stable.
func insertionSort(keys []int64, rows []int32) {
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		if rows == nil {
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
			continue
		}
		r := rows[i]
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], rows[j] = keys[j-1], rows[j-1]
		}
		keys[j], rows[j] = k, r
	}
}

// countingSort rewrites keys, all within [base, base+span), in ascending
// order from a count per value.
func countingSort(keys []int64, base uint64, span int) {
	counts := make([]uint32, span)
	for _, k := range keys {
		counts[uint64(k)-base]++
	}
	at := 0
	for v, c := range counts {
		k := int64(base + uint64(v))
		for end := at + int(c); at < end; at++ {
			keys[at] = k
		}
	}
}
