package main

import (
	"fmt"
	"math/rand"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// schedule gives a lane's due times: a fixed gap, the lanes staggered
// evenly across it, plus a seeded jitter of up to half a gap. The jitter
// keeps the mean rate and a minimum spacing of half a gap, and stops the
// arrivals from locking onto anything periodic in the program, such as the
// scheduler's 5 ms quantum under a 10 ms gap.
type schedule struct {
	start  time.Time
	gap    time.Duration
	offset time.Duration
	rng    *rand.Rand
}

// newSchedule paces lane k of n at rate ops per second over all n lanes.
func newSchedule(start time.Time, rate float64, k, n int, seed int64) *schedule {
	gap := time.Duration(float64(n) / rate * float64(time.Second))
	return &schedule{
		start:  start,
		gap:    gap,
		offset: gap * time.Duration(k) / time.Duration(n),
		rng:    rand.New(rand.NewSource(seed + int64(k))),
	}
}

// due returns when op i is due. Call it once per op, in order.
func (s *schedule) due(i int) time.Time {
	jitter := time.Duration(s.rng.Int63n(int64(s.gap)/2 + 1))
	return s.start.Add(s.offset + time.Duration(i)*s.gap + jitter)
}

// lateAfter is how long after its due time a send counts as late: a tenth
// of the lane's gap, and never less than 200 µs, which is about what one
// wake-up through the poller costs when the other core is busy.
func (s *schedule) lateAfter() time.Duration {
	return max(s.gap/10, 200*time.Microsecond)
}

// sleeper waits on a Linux timerfd through Go's network poller. time.Sleep
// will not do: in a process whose cores are idle the runtime waits in epoll
// with a timeout rounded up to a millisecond, which is forty ping round
// trips; and a loop that spins on runtime.Gosched keeps the run queue
// non-empty, so the scheduler never polls the network and the in-process
// server starves. A timer that is a file descriptor wakes the poller when it
// is due, holds no core while it waits, and is as precise as the kernel's
// high-resolution timers.
type sleeper struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// itimerspec is struct itimerspec from <sys/timerfd.h>.
type itimerspec struct{ interval, value syscall.Timespec }

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// The descriptor is non-blocking, so os.NewFile hands it to the poller
	// and Read parks the goroutine, not the thread.
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) close() { s.f.Close() }

// sleep waits for d.
func (s *sleeper) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

// waitUntil waits for due and returns the time at which it stopped waiting;
// when that is after due, the difference is how late the op is sent.
func (s *sleeper) waitUntil(due time.Time) (time.Time, error) {
	for {
		now := time.Now()
		left := due.Sub(now)
		if left <= 0 {
			return now, nil
		}
		if err := s.sleep(left); err != nil {
			return now, err
		}
	}
}
