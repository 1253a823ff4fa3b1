package kwayrefine

import (
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// permStream computes the random visit orders of a Refine or Balance call
// one pass ahead, on a producer goroutine, so the O(n) shuffle overlaps
// setup and the previous pass instead of sitting on the critical path.
//
// The stream is exact because a pass draws nothing from the RNG besides
// the Perm(n) that opens it: the sequence of orders a call consumes is
// fixed by the RNG state at entry, whichever pass ends up consuming each.
// The producer therefore runs on a copy of the caller's generator and
// records the copy's state after every permutation; finish hands the
// caller the state after the last permutation actually consumed, so the
// caller's stream continues exactly as if every pass had called Perm
// itself. A permutation produced speculatively and never consumed is
// discarded together with the draws it made.
type permStream struct {
	bufs  [2][]int32 // double buffer, reserved by Refiner.grow
	after [2]rng.RNG // the producer's RNG state right after filling bufs[i]
	gen   rng.RNG    // the producer's copy of the caller's stream
	n     int        // permutation length of the running call

	held int           // buffer the current pass reads, -1 before the first
	last rng.RNG       // caller's stream state after the consumed permutations
	wait time.Duration // time next spent blocked, summed when timed

	// free carries buffer indices the producer may fill, plus the -1 that
	// tells it to exit: two buffers and one sentinel, so no send blocks.
	free chan int
	// ready carries filled buffer indices in stream order; at most both
	// buffers are in flight, so the producer never blocks on it.
	ready chan int
	done  chan struct{}
	stop  atomic.Bool // abandons a permutation finish no longer needs
	run   func()      // produce, bound once: starting it allocates nothing
}

func newPermStream() *permStream {
	s := &permStream{
		free:  make(chan int, 3),
		ready: make(chan int, 2),
		done:  make(chan struct{}),
	}
	s.run = s.produce
	return s
}

// reserve grows both order buffers to hold n entries.
func (s *permStream) reserve(n int) {
	for i := range s.bufs {
		if cap(s.bufs[i]) < n {
			s.bufs[i] = make([]int32, n)
		}
	}
}

// start launches the producer on a copy of rand for permutations of
// length n (the buffers must be reserved). Every start must be paired
// with a finish before the buffers are touched again.
func (s *permStream) start(rand *rng.RNG, n int) {
	s.gen, s.last = *rand, *rand
	s.n, s.held = n, -1
	s.stop.Store(false)
	s.free <- 0
	s.free <- 1
	go s.run()
}

func (s *permStream) produce() {
	for {
		idx := <-s.free
		if idx < 0 || !s.gen.PermUntil(s.bufs[idx][:s.n], &s.stop) {
			s.done <- struct{}{}
			return
		}
		s.after[idx] = s.gen
		s.ready <- idx
	}
}

// next returns the next permutation of the stream, waiting for the
// producer if it is not ready yet, and hands the previous pass's buffer
// back to the producer. With timed set the wait is added to s.wait.
func (s *permStream) next(timed bool) []int32 {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	idx := <-s.ready
	if timed {
		s.wait += time.Since(t0)
	}
	if s.held >= 0 {
		s.free <- s.held
	}
	s.held = idx
	s.last = s.after[idx]
	return s.bufs[idx][:s.n]
}

// finish stops and joins the producer, empties both channels for the next
// start, and sets *rand to the stream state after the last consumed
// permutation (unchanged when the call consumed none).
func (s *permStream) finish(rand *rng.RNG) {
	s.stop.Store(true)
	s.free <- -1
	<-s.done
	for len(s.free) > 0 {
		<-s.free
	}
	for len(s.ready) > 0 {
		<-s.ready
	}
	*rand = s.last
}
