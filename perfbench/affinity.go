package main

import (
	"syscall"
	"unsafe"
)

// On a shared host one vCPU can run much slower than the other for seconds
// at a time, while a neighbour keeps its hyperthread sibling busy. Work on
// the locked main thread therefore moves to the next allowed CPU before
// every repetition: each segment then has repetitions on every CPU, and the
// fastest one (see fastest) comes from whichever CPU the host left alone.

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

func affinity() (cpuSet, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return s, e
	}
	return s, nil
}

func setAffinity(s cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return e
	}
	return nil
}

// cpuRotation pins the calling OS thread to each CPU of its original mask in
// turn. A rotation that cannot read or set affinity does nothing: the thread
// then runs wherever the kernel puts it, which only weakens the estimate.
type cpuRotation struct {
	all  cpuSet
	cpus []int
	next int
}

func newCPURotation() *cpuRotation {
	all, err := affinity()
	if err != nil {
		return &cpuRotation{}
	}
	r := &cpuRotation{all: all}
	for i := 0; i < len(all)*64; i++ {
		if all[i/64]&(1<<(i%64)) != 0 {
			r.cpus = append(r.cpus, i)
		}
	}
	return r
}

// step pins the thread to the next CPU.
func (r *cpuRotation) step() {
	if len(r.cpus) < 2 {
		return
	}
	var s cpuSet
	cpu := r.cpus[r.next%len(r.cpus)]
	r.next++
	s[cpu/64] = 1 << (cpu % 64)
	_ = setAffinity(s) // a failed pin leaves the thread unpinned
}

// release restores the original mask.
func (r *cpuRotation) release() {
	if len(r.cpus) < 2 {
		return
	}
	_ = setAffinity(r.all) // the mask was read from this thread, so restoring it cannot fail
}
