package main

import "time"

// The benchmark runs on shared hosts whose other tenants slow every kind
// of code, compute and memory bound alike, by up to 1.5× for tens of
// seconds at a time: far more than a change a run should detect, and long
// enough that a whole run can sit inside one slow spell. So a run also
// times a yardstick before and after every set-up and pass: a fixed
// kernel of the benchmark's own that no change to the repository touches.
// Every reported time is scaled by refYardstick over the mean of the two
// yardstick times around it, which is the time the operation would have
// taken had the host run the yardstick at its reference speed. A slow
// spell slows the operation and the yardstick alike and cancels; a change
// to the program moves the scaled time as much as the raw one.

// refYardstick is the yardstick's time on a quiet reference machine, a
// 2-vCPU Intel Xeon VM at 2.1 GHz. It only fixes the scale of the
// reported times: any constant compares two commits equally.
const refYardstick = 5 * time.Millisecond

// The yardstick has four parts of about a millisecond each on the
// reference machine, one per kind of work the workloads do: a dependent
// integer chain, a switch interpreter like the guest machine's dispatch,
// random reads that miss the per-core caches, and clearing memory.
const (
	chainSteps  = 400_000
	interpSteps = 100_000
	probeReads  = 500_000
	clearRounds = 2
	tableWords  = 1 << 20 // 4 MiB: twice the per-core L2 of the reference machine
)

// yardstick holds the kernel's inputs, made once per run.
type yardstick struct {
	code  []byte   // interpreter program: opcodes 0..7
	table []uint32 // probed, then cleared
	sink  uint64   // keeps results live
}

func newYardstick() *yardstick {
	y := &yardstick{code: make([]byte, 4096), table: make([]uint32, tableWords)}
	x := uint32(12345)
	for i := range y.code {
		x = x*1664525 + 1013904223
		y.code[i] = byte(x>>24) % 8
	}
	return y
}

// time runs the kernel once and returns its wall time. The table is
// cleared once untimed first, so what the pass before left in the caches
// does not change the time.
func (y *yardstick) time() time.Duration {
	clear(y.table)
	t0 := time.Now()
	y.chain()
	y.interp()
	y.probe()
	for i := 0; i < clearRounds; i++ {
		clear(y.table)
	}
	return time.Since(t0)
}

// scaled converts d, measured between yardstick times before and after,
// to the reference speed.
func scaled(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*refYardstick) / float64(before+after))
}

func (y *yardstick) chain() {
	x := uint64(88172645463325252)
	for i := 0; i < chainSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += uint64(i)
	}
	y.sink += x
}

func (y *yardstick) interp() {
	var r [8]uint32
	pc := 0
	for i := 0; i < interpSteps; i++ {
		switch y.code[pc] {
		case 0:
			r[1] += r[2] + 1
		case 1:
			r[2] ^= r[1] << 3
		case 2:
			r[3] = r[1]*7 + r[4]
		case 3:
			if r[3]&1 == 0 {
				pc = (pc + 13) % len(y.code)
			}
		case 4:
			r[4] = r[3] >> 2
		case 5:
			r[5] += r[4] | 5
		case 6:
			r[6] = r[5] - r[1]
		case 7:
			r[7] += uint32(pc)
		}
		pc = (pc + 1) % len(y.code)
	}
	y.sink += uint64(r[1] + r[7])
}

func (y *yardstick) probe() {
	x := uint32(1)
	var s uint32
	for i := 0; i < probeReads; i++ {
		x = x*1664525 + 1013904223
		s += y.table[(x>>8)%tableWords]
	}
	y.sink += uint64(s)
}
