package main

import (
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"unsafe"
)

// dieWithParent makes the kernel kill the child when this process dies, so
// a benchmark that is itself killed leaves no daemon behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// pinToOneCPU binds every thread of this process, and so every thread and
// child it starts from here on, to the highest-numbered CPU it may run on,
// and returns that CPU.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // 1,024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i, word := range mask {
		if word != 0 {
			cpu = i*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that has exited since the listing is not an error.
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask))); errno != 0 && errno != syscall.ESRCH {
			return 0, fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, errno)
		}
	}
	return cpu, nil
}
