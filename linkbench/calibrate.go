package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference unit is a fixed piece of work that uses none of the
// repository's code: a random walk over a 64 MB table, edit distances
// between short strings, and inserts and lookups in an 8 MB hash table.
// Its time follows the machine's speed — stolen CPU, and a neighbour's
// load on the shared caches, memory and cores — but no change to the
// program. A calibration block runs refBlock units, one after another
// on one thread. (Units run on every core at once contend with each
// other for the caches and memory, so their CPU time would depend on how
// the scheduler happened to overlap them.) A run calibrates many times,
// between its operations, and states its times at the speed where one
// unit takes refUnitMs (see speed).
const (
	refUnitMs   = 10.0 // nominal time of one reference unit
	fsyncRefMs  = 0.3  // nominal time of one probe fsync
	probeBytes  = 256  // one probe append, about one upsert's WAL record
	refBlock    = 3    // units per calibration block
	chaseWords  = 16 << 20
	chaseSteps  = 40_000
	hashSlots   = 1 << 20 // power of two
	hashKeys    = 150_000
	editStrings = 256
	editRounds  = 6
)

// refUnit is the reference work's state. Its tables live outside the
// Go heap, so they neither add to the program's live heap nor change
// when its collector runs, and one unit allocates nothing.
type refUnit struct {
	chase []uint32 // a single cycle through every index, visited at random
	slots []uint64
	strs  [][]byte
	row   []int
	sink  uint64
}

func newRefUnit() (*refUnit, error) {
	chase, err := mmapWords(chaseWords)
	if err != nil {
		return nil, err
	}
	slotWords, err := mmapWords(2 * hashSlots)
	if err != nil {
		return nil, err
	}
	r := &refUnit{
		chase: chase,
		slots: unsafe.Slice((*uint64)(unsafe.Pointer(&slotWords[0])), hashSlots),
		row:   make([]int, 64),
	}
	// Sattolo's shuffle: one cycle through all indexes, so the walk
	// never settles into a short loop that fits a cache.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range chase {
		chase[i] = uint32(i)
	}
	for i := len(chase) - 1; i > 0; i-- {
		j := rng.IntN(i)
		chase[i], chase[j] = chase[j], chase[i]
	}
	const alpha = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789-_"
	for i := 0; i < editStrings; i++ {
		s := make([]byte, 8+rng.IntN(24))
		for j := range s {
			s[j] = alpha[rng.IntN(len(alpha))]
		}
		r.strs = append(r.strs, s)
	}
	return r, nil
}

func mmapWords(n int) ([]uint32, error) {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference tables: %w", err)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n), nil
}

// run does one unit of reference work.
func (r *refUnit) run() {
	// Memory latency: a dependent random walk.
	p := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		p = r.chase[p]
	}
	// Branchy integer work: edit distance between neighbouring strings.
	d := 0
	for k := 0; k < editRounds; k++ {
		for i := range r.strs {
			d += editDistance(r.strs[i], r.strs[(i+k+1)%len(r.strs)], r.row)
		}
	}
	// Hashing and cache-missing stores and loads: linear probing.
	clear(r.slots)
	mask := uint64(len(r.slots) - 1)
	x := uint64(p) | 1
	for i := 0; i < hashKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for h := (x * 0x9e3779b97f4a7c15) >> 40 & mask; ; h = (h + 1) & mask {
			if r.slots[h] == 0 || r.slots[h] == x {
				r.slots[h] = x
				break
			}
		}
	}
	hits := uint64(0)
	for i := 0; i < hashKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if r.slots[(x*0x9e3779b97f4a7c15)>>40&mask] == x {
			hits++
		}
	}
	r.sink += uint64(p) + uint64(d) + hits
}

// editDistance is the Levenshtein distance of a and b, on one row of
// at least len(b)+1 ints.
func editDistance(a, b []byte, row []int) int {
	row = row[:len(b)+1]
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			row[j] = min(row[j]+1, row[j-1]+1, prev+cost)
			prev = cur
		}
	}
	return row[len(b)]
}

// calibrate times a block of reference units on this goroutine's
// thread, in wall time and in the thread's own CPU time, and records
// them under the current phase. It runs between timed operations,
// never inside one, and after a forced GC (the caller's), so that no
// collection of the program's garbage runs beside the units; the units
// leave none.
func (b *bench) calibrate() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < refBlock; i++ {
		c0, t0 := threadCPU(), time.Now()
		b.ref.run()
		b.refWallMs.add(b.phase, ms(time.Since(t0)))
		b.refCPUMs.add(b.phase, ms(threadCPU()-c0))
	}
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeFsync appends probeBytes to the probe file, a file of its own
// next to the stores, and times its fsync. The disk's latency drifts on
// its own, by up to three times within a minute on a shared VM, so the
// WAL tails interleave one probe with each upsert.
func (b *bench) probeFsync() {
	if _, err := b.probeFile.Write(make([]byte, probeBytes)); err != nil {
		b.fail("probe append: %v", err)
		return
	}
	t0 := time.Now()
	err := b.probeFile.Sync()
	d := time.Since(t0)
	b.ownTime += d
	if err != nil {
		b.fail("probe fsync: %v", err)
		return
	}
	b.fsyncRefMs.add(b.phase, ms(d))
}

// diskSpeed is how much slower than nominal the probe fsyncs of phase p
// ran: their median over fsyncRefMs.
func (b *bench) diskSpeed(p phase) float64 { return median(b.fsyncRefMs[p]) / fsyncRefMs }

// speed is how much slower than nominal the machine ran in phase p: the
// median reference unit's time over refUnitMs, in wall time and in CPU
// time.
func (b *bench) speed(p phase) (wall, cpu float64) {
	return median(b.refWallMs[p]) / refUnitMs, median(b.refCPUMs[p]) / refUnitMs
}
