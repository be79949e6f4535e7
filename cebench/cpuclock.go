package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is Linux's clock ID for the process's CPU time
// (clock_gettime(2)).
const clockProcessCPU = 2

// processCPU is the CPU time all the process's threads have used.
func processCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
