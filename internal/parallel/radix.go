package parallel

// RadixSortUint64 sorts keys ascending using a parallel least-significant-
// digit radix sort with 8-bit digits. This is the O(N) key sort that gives
// the paper's parallel interval merge its O(log N) depth on a PRAM; here the
// histogram and scatter phases run across the pool's goroutines.
//
// The sort is stable, which the interval merge relies on: for equal
// addresses, record order decides whether an end marker lands after a start
// marker.
func (p *Pool) RadixSortUint64(keys []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	if n < 1024 || p.workers == 1 {
		radixSortSeq(keys)
		return
	}

	buf := make([]uint64, n)
	src, dst := keys, buf

	chunk, nChunks := p.chunking(n)

	// hist[c][d] = count of digit d in chunk c.
	hist := make([][256]int64, nChunks)

	maxKey := p.MaxUint64(keys)

	for shift := uint(0); shift < 64; shift += 8 {
		if shift > 0 && maxKey>>shift == 0 {
			break // all remaining digits are zero
		}
		p.run(nChunks, func(c int) {
			lo, hi := c*chunk, (c+1)*chunk
			if hi > n {
				hi = n
			}
			var h [256]int64
			for i := lo; i < hi; i++ {
				h[byte(src[i]>>shift)]++
			}
			hist[c] = h
		})

		// Exclusive scan over (digit, chunk) in digit-major order so the
		// scatter is stable.
		var run int64
		for d := 0; d < 256; d++ {
			for c := 0; c < nChunks; c++ {
				cnt := hist[c][d]
				hist[c][d] = run
				run += cnt
			}
		}

		p.run(nChunks, func(c int) {
			lo, hi := c*chunk, (c+1)*chunk
			if hi > n {
				hi = n
			}
			offs := hist[c]
			for i := lo; i < hi; i++ {
				d := byte(src[i] >> shift)
				dst[offs[d]] = src[i]
				offs[d]++
			}
		})

		src, dst = dst, src
	}

	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// radixSortSeq is the sequential LSD radix sort used for small inputs.
func radixSortSeq(keys []uint64) {
	n := len(keys)
	buf := make([]uint64, n)
	src, dst := keys, buf
	var maxKey uint64
	for _, k := range src {
		if k > maxKey {
			maxKey = k
		}
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if shift > 0 && maxKey>>shift == 0 {
			break
		}
		var h [256]int
		for _, k := range src {
			h[byte(k>>shift)]++
		}
		run := 0
		for d := 0; d < 256; d++ {
			cnt := h[d]
			h[d] = run
			run += cnt
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[h[d]] = k
			h[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
