package export

import "sync"

// Pooled payload buffers for WAL record encoding. WriteSegment used to
// allocate a fresh bytes.Buffer (and let it grow in log₂ steps) per
// segment; at drain rhythm on a hot database that is thousands of
// short-lived multi-kilobyte allocations per second, all of the same
// few shapes. The pools below recycle them, size-classed so one
// pathological giant segment cannot pin a huge buffer under every
// small segment that follows it: a buffer re-enters the pool of the
// largest class it still fits, and anything beyond the top class is
// left to the garbage collector.

// payloadClasses are the pooled capacity classes, smallest first. A
// typical drained segment (a few hundred events at tens of bytes
// each) lands in the first two classes; the top class covers a
// 65,536-event segment, so the tens-of-thousands-event segments of a
// hot monitor's unbatched checkpoints encode into a pooled buffer too.
var payloadClasses = [...]int{4 << 10, 64 << 10, 1 << 20, 4 << 20}

// payloadPools holds one pool per class. Entries are *[]byte so
// Put/Get move one pointer, not a copied slice header boxed into a
// fresh interface allocation.
var payloadPools [len(payloadClasses)]sync.Pool

// getPayloadBuf returns a zero-length buffer with capacity at least
// hint, from the smallest pool class that fits. A hint beyond the top
// class is allocated directly (and will not be pooled on return).
func getPayloadBuf(hint int) *[]byte {
	for i, class := range payloadClasses {
		if hint <= class {
			if p, _ := payloadPools[i].Get().(*[]byte); p != nil {
				*p = (*p)[:0]
				return p
			}
			b := make([]byte, 0, class)
			return &b
		}
	}
	b := make([]byte, 0, hint)
	return &b
}

// putPayloadBuf returns a buffer to the pool of the largest class it
// still fits — a buffer that grew past its class is promoted, one
// beyond the top class is dropped, so pooled memory stays bounded by
// class size times pool population.
func putPayloadBuf(p *[]byte) {
	c := cap(*p)
	if c > payloadClasses[len(payloadClasses)-1] || c < payloadClasses[0] {
		return // oversized or undersized: let the GC have it
	}
	for i := len(payloadClasses) - 1; i >= 0; i-- {
		if c >= payloadClasses[i] {
			*p = (*p)[:0]
			payloadPools[i].Put(p)
			return
		}
	}
}
