package mem

// stridePrefetcher is the always-on L1-D stride prefetcher of Table 1:
// a fixed number of PC-indexed streams, each tracking the last address and
// stride of one static load with a two-bit confidence counter. Confident
// streams prefetch `degree` strides ahead.
type stridePrefetcher struct {
	streams []pfStream
	degree  int
	clock   uint64
	buf     []uint64 // reused by observe; valid until the next call
}

type pfStream struct {
	pc       uint64
	valid    bool
	lastAddr uint64
	stride   int64
	conf     uint8 // 2-bit saturating
	lastUse  uint64
}

func newStridePrefetcher(streams, degree int) *stridePrefetcher {
	return &stridePrefetcher{
		streams: make([]pfStream, streams),
		degree:  degree,
		buf:     make([]uint64, 0, degree),
	}
}

// observe trains the prefetcher on a demand load (pc, addr) and returns the
// addresses to prefetch, if any. The returned slice is reused by the next
// call; callers must consume it immediately.
func (p *stridePrefetcher) observe(pc, addr uint64) []uint64 {
	p.clock++
	var s *pfStream
	for i := range p.streams {
		if p.streams[i].pc == pc && p.streams[i].valid {
			s = &p.streams[i]
			break
		}
	}
	if s == nil {
		// A new stream replaces the last invalid one, else the least
		// recently used.
		victim := 0
		for i := range p.streams {
			if !p.streams[i].valid {
				victim = i
			} else if p.streams[victim].valid && p.streams[i].lastUse < p.streams[victim].lastUse {
				victim = i
			}
		}
		p.streams[victim] = pfStream{pc: pc, valid: true, lastAddr: addr, lastUse: p.clock}
		return nil
	}
	s.lastUse = p.clock
	stride := int64(addr) - int64(s.lastAddr)
	s.lastAddr = addr
	if stride == 0 {
		return nil
	}
	if stride == s.stride {
		if s.conf < 3 {
			s.conf++
		}
	} else {
		if s.conf > 0 {
			s.conf--
		}
		s.stride = stride
		return nil
	}
	if s.conf < 2 {
		return nil
	}
	out := p.buf[:0]
	for d := 1; d <= p.degree; d++ {
		next := int64(addr) + stride*int64(d)
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	return out
}
