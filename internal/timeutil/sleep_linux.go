package timeutil

import (
	"errors"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is a kernel timer whose expiry the runtime's poller reports: the
// poller returns as soon as the descriptor is readable, however long the
// timeout it sleeps with. A read deadline at the same instant stands in when
// every processor is busy and none waits on the poller, where a runtime timer
// is the precise one.
type timerfd struct {
	fd   int
	f    *os.File
	conn syscall.RawConn
	// spec, buf and read are reused by every sleep so that one allocates
	// nothing.
	spec    struct{ interval, value syscall.Timespec }
	buf     [8]byte
	readErr error
	read    func(uintptr) bool
}

// timerfds holds the idle timers. SleepPrecise's cap bounds how many are in
// use at once, so it never holds more than that: they stay open for the
// process's life, and a sleep allocates nothing once they exist.
var timerfds = make(chan *timerfd, preciseSleepers)

const clockMonotonic = 1

func newTimerfd() (*timerfd, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	t := &timerfd{fd: int(fd), f: os.NewFile(fd, "timerfd")}
	conn, err := t.f.SyscallConn()
	if err != nil {
		t.f.Close()
		return nil, err
	}
	t.conn = conn
	t.read = func(uintptr) bool {
		_, t.readErr = syscall.Read(t.fd, t.buf[:])
		return t.readErr != syscall.EAGAIN
	}
	return t, nil
}

// arm sets the timer to expire d from now; d == 0 disarms it.
func (t *timerfd) arm(d time.Duration) error {
	t.spec.value = syscall.NsecToTimespec(int64(d))
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0, uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	return nil
}

// sleep parks the caller until the timer or the read deadline fires, and
// leaves the timer disarmed with no expiry pending.
func (t *timerfd) sleep(d time.Duration) error {
	if err := t.arm(d); err != nil {
		return err
	}
	if err := t.f.SetReadDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	if err := t.conn.Read(t.read); !errors.Is(err, os.ErrDeadlineExceeded) {
		if err == nil {
			err = t.readErr
		}
		return err
	}
	// The deadline won: take back the expiry the timer may still deliver.
	if err := t.arm(0); err != nil {
		return err
	}
	_, _ = syscall.Read(t.fd, t.buf[:])
	return nil
}

// sleepPrecise sleeps d on a pooled kernel timer, or on the runtime's timers
// for whatever is left of d if no timer can be had.
func sleepPrecise(d time.Duration) {
	deadline := time.Now().Add(d)
	var t *timerfd
	select {
	case t = <-timerfds:
	default:
		var err error
		if t, err = newTimerfd(); err != nil {
			time.Sleep(d)
			return
		}
	}
	if err := t.sleep(d); err != nil {
		t.f.Close()
		time.Sleep(time.Until(deadline))
		return
	}
	select {
	case timerfds <- t:
	default:
		t.f.Close()
	}
}

// yield gives up the goroutine's processor and then its thread's core, so
// that a thread the kernel has just woken runs now, not at the next tick.
func yield() {
	runtime.Gosched()
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
