package export

import "sync"

// Pooled byte buffers, size-classed so one pathological giant record
// cannot pin a huge buffer under every small one that follows it: a
// buffer re-enters the pool of the largest class it still fits, and
// anything beyond the top class is left to the garbage collector.
// Entries are *[]byte so Put/Get move one pointer, not a copied slice
// header boxed into a fresh interface allocation.
//
// Two sets of classes share this code. WriteSegment used to allocate a
// fresh bytes.Buffer (and let it grow in log₂ steps) per segment; at
// drain rhythm on a hot database that is thousands of short-lived
// multi-kilobyte allocations per second, all of the same few shapes,
// and payloadBufs recycles them. A network sink keeps every framed
// record it ships until the collector acknowledges it, so frameBufs
// holds exactly-sized frames in finer classes: a ~5 KB frame of a
// 256-event batch takes 8 KiB, not the 64 KiB payload class.
type bufPool struct {
	classes []int // pooled capacities, smallest first
	pools   []sync.Pool
}

func newBufPool(classes ...int) *bufPool {
	return &bufPool{classes: classes, pools: make([]sync.Pool, len(classes))}
}

// payloadBufs are the WAL payload encoding buffers. A typical drained
// segment (a few hundred events at tens of bytes each) lands in the
// first two classes; the top class covers a 65,536-event segment, so
// the tens-of-thousands-event segments of a hot monitor's unbatched
// checkpoints encode into a pooled buffer too.
var payloadBufs = newBufPool(4<<10, 64<<10, 1<<20, 4<<20)

// frameBufs are the framed records a NetSink buffers (EncodeFrame,
// PutFrame): powers of two from 1 KiB to 4 MiB.
var frameBufs = newBufPool(1<<10, 2<<10, 4<<10, 8<<10, 16<<10, 32<<10, 64<<10,
	128<<10, 256<<10, 512<<10, 1<<20, 2<<20, 4<<20)

// get returns a zero-length buffer with capacity at least hint, from
// the smallest class that fits. A hint beyond the top class is
// allocated directly (and will not be pooled on return).
func (bp *bufPool) get(hint int) *[]byte {
	for i, class := range bp.classes {
		if hint <= class {
			if p, _ := bp.pools[i].Get().(*[]byte); p != nil {
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

// put returns a buffer to the pool of the largest class it still fits
// — a buffer that grew past its class is promoted, one beyond the top
// class is dropped, so pooled memory stays bounded by class size times
// pool population.
func (bp *bufPool) put(p *[]byte) {
	c := cap(*p)
	if c > bp.classes[len(bp.classes)-1] || c < bp.classes[0] {
		return // oversized or undersized: let the GC have it
	}
	for i := len(bp.classes) - 1; i >= 0; i-- {
		if c >= bp.classes[i] {
			*p = (*p)[:0]
			bp.pools[i].Put(p)
			return
		}
	}
}
