package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// A shared host's speed drifts: on the 2-vCPU Xeon virtual machine this
// benchmark was defined on, runs minutes apart on identical inputs differ
// by 15-35%, in slow spells that last minutes (README.md). Each run
// therefore also times a fixed reference kernel that uses no code of the
// program, and reports its times scaled to the speed at which that kernel
// takes refKernelS. A change in the host's speed moves the kernel too, and
// cancels. A change to the program must not move the kernel, or it would
// cancel part of itself: so the kernel runs only between timed calls, and
// every timed call ends when the program is quiet again (bench.settle) —
// no job in flight and no collection or sweep left over — with that work
// counted in the call. TestScalingKeepsProgramSlowdowns checks this. The
// wall times are recorded beside the scaled ones.

// refKernelS is the reference kernel's time on that machine in its faster
// spells.
const refKernelS = 0.057

// kernel is the reference work of one worker: integer hashing in
// registers, then a random walk along one cycle through a 256 KB table
// that stays in the core's own cache, mixing each step into the hash; the
// first part takes about three times as long as the second. Of the
// kernels tried against the fract and certify-faults jobs over half an hour
// of a drifting host (README.md), this one moved with them most nearly
// one for one. A walk through a 4 MB table, which depends on the cache
// shared with other tenants, slowed about twice as much as the jobs did.
// The table is mapped outside the Go heap, so it neither changes the
// collector's pacing of the program nor is slowed by the program's heap.
type kernel struct {
	next []byte // 1<<16 little-endian uint32 links
}

func newKernel(seed int64) (*kernel, error) {
	const n = 1 << 16
	buf, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	k := &kernel{next: buf}
	for i := 0; i < n; i++ {
		k.set(i, uint32(i))
	}
	// Sattolo's algorithm: one cycle through every slot.
	rng := rand.New(rand.NewSource(seed))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		a, b := k.get(i), k.get(j)
		k.set(i, b)
		k.set(j, a)
	}
	return k, nil
}

func (k *kernel) get(i int) uint32    { return binary.LittleEndian.Uint32(k.next[4*i:]) }
func (k *kernel) set(i int, v uint32) { binary.LittleEndian.PutUint32(k.next[4*i:], v) }

// warm reads one byte of every cache line of the table, in order, so the
// timed walk finds it in the caches as far as they hold it, however much
// memory the program touched before.
func (k *kernel) warm() uint32 {
	var s uint32
	for i := 0; i < len(k.next); i += 64 {
		s += uint32(k.next[i])
	}
	return s
}

func (k *kernel) run() uint32 {
	h := uint64(1)
	for i := 0; i < 1<<25; i++ {
		h = (h ^ uint64(i)) * 0x9e3779b97f4a7c15
	}
	var p uint32
	for i := 0; i < 1<<21; i++ {
		p = k.get(int(p))
		h = (h ^ uint64(p)) * 0x9e3779b97f4a7c15
	}
	return uint32(h >> 32)
}

// calibrator times the kernel on every worker at once.
type calibrator struct {
	kernels []*kernel
	every   time.Duration // least time between two timings
	last    time.Time
	samples []float64
	sink    uint32
}

func newCalibrator(workers int) (*calibrator, error) {
	c := &calibrator{every: time.Second}
	for w := 0; w < workers; w++ {
		k, err := newKernel(int64(w))
		if err != nil {
			c.close()
			return nil, err
		}
		c.kernels = append(c.kernels, k)
	}
	return c, nil
}

// close unmaps the kernels' tables.
func (c *calibrator) close() {
	for _, k := range c.kernels {
		syscall.Munmap(k.next)
	}
}

// maxTimings caps the timings one sample takes (about 0.6 s).
const maxTimings = 10

// sample times the kernel unless the last timing is under c.every old,
// so every measured call has a recent reading of the host's speed. It
// times it once per c.every since the last sample, up to maxTimings: the
// median then weighs each stretch of the run by its length, and a run of
// long calls, with few gaps between them, still gets enough timings to
// outvote the noise of single ones. The caller makes sure the program is
// quiet.
func (c *calibrator) sample() {
	since := time.Since(c.last)
	if since < c.every {
		return
	}
	n := 1
	if c.every > 0 {
		n = min(int(since/c.every), maxTimings)
	}
	for range n {
		c.time()
	}
	c.last = time.Now()
}

// time times one walk of the kernel on every worker at once.
func (c *calibrator) time() {
	for _, k := range c.kernels {
		c.sink += k.warm()
	}
	t := time.Now()
	var wg sync.WaitGroup
	out := make([]uint32, len(c.kernels))
	for i, k := range c.kernels {
		wg.Add(1)
		go func(i int, k *kernel) {
			defer wg.Done()
			out[i] = k.run()
		}(i, k)
	}
	wg.Wait()
	c.samples = append(c.samples, time.Since(t).Seconds())
	c.sink += out[0]
}

// speed is the host's speed relative to the reference: above 1 when the
// kernel ran faster than refKernelS.
func (c *calibrator) speed() float64 { return refKernelS / median(c.samples) }
