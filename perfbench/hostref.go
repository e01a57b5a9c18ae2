package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host normalization. On a shared host the rate of the simulator's
// branchy inner loops swings with other tenants' load by up to 2x within
// seconds, and longer runs do not average it out. The benchmark therefore
// times a fixed reference loop of the same kind at idle points between
// work units (see meter.go) and reports every timed interval at nominal
// host speed: raw time × (reference rate ÷ nominal rate).
//
// The loop runs in a helper process so it shares neither the scheduler
// nor the heap of the program under test: a GC cycle still marking the
// program's heap would otherwise slow the slice and make the program look
// faster.

// nominalRefRate is the reference loop's rate per thread at full width,
// in iterations per second, on the reference host (a 2-vCPU KVM guest,
// one thread per core, sharing its last-level cache with other tenants)
// in a quiet period. Normalized times are expressed at this speed.
const nominalRefRate = 1.25e6

// refSliceIters is the work of one reference slice per thread: about
// 25 ms at nominal speed.
const refSliceIters = 30000

// refTableLen is the threshold table's length: 16 MiB, so the walk's
// random starts miss the private caches and share the last-level cache
// and memory with other tenants, as the simulator's tape and plan reads
// do.
const refTableLen = 1 << 21

// refState is one thread's reference working set: a large threshold
// table, shared read-only by every thread and walked with data-dependent
// branches as the trajectory tape is, and 256 real amplitudes rotated
// pairwise, as a statevector gate kernel does.
type refState struct {
	thr []float64
	amp [256]float64
	cos [8]float64
	sin [8]float64
}

// newRefTable fills the threshold table with uniform draws.
func newRefTable() []float64 {
	thr := make([]float64, refTableLen)
	x := uint64(1)
	for i := range thr {
		x = splitmix(x)
		thr[i] = float64(x>>11) * 0x1p-53
	}
	return thr
}

func newRefState(thr []float64) *refState {
	st := &refState{thr: thr}
	for i := range st.amp {
		st.amp[i] = 1 / 16.0
	}
	for i := range st.cos {
		th := 0.1 * float64(i+1)
		st.cos[i], st.sin[i] = math.Cos(th), math.Sin(th)
	}
	return st
}

// splitmix advances a SplitMix64 state and returns the new one mixed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// refWork runs iters iterations of the reference loop and returns a
// checksum that keeps the compiler from discarding the work. It
// allocates nothing. Each iteration makes four SplitMix64 draws; each
// draw starts at a random table entry and walks forward while the
// entries stay below the draw, and the last walk's length picks the
// stride and angle of one rotation butterfly across the amplitudes.
func refWork(st *refState, x uint64, iters int) uint64 {
	var sum uint64
	mask := uint64(len(st.thr) - 1)
	for i := 0; i < iters; i++ {
		var j int
		for d := 0; d < 4; d++ {
			x += 0x9e3779b97f4a7c15
			z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			u := float64(z>>11) * 0x1p-53
			p := z & mask
			for j = 0; j < 16 && st.thr[(p+uint64(j))&mask] < u; j++ {
			}
			sum += uint64(j)
		}
		s := 1 << (j & 7)
		c, sn := st.cos[j&7], st.sin[j&7]
		if sum&1 == 1 {
			sn = -sn
		}
		for b := 0; b < len(st.amp); b += 2 * s {
			for k := b; k < b+s; k++ {
				a0, a1 := st.amp[k], st.amp[k+s]
				st.amp[k] = c*a0 - sn*a1
				st.amp[k+s] = sn*a0 + c*a1
			}
		}
	}
	return sum
}

// refRun runs one slice on width threads and returns the rate per
// thread in iterations per second.
func refRun(states []*refState, width, iters int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(st *refState, seed uint64) {
			defer wg.Done()
			refSink[seed%uint64(len(refSink))] = refWork(st, seed, iters)
		}(states[w], uint64(w+1))
	}
	wg.Wait()
	return float64(iters) / time.Since(start).Seconds()
}

// refSink receives refWork checksums; each helper goroutine writes its
// own slot.
var refSink [64]uint64

// refHelperMain is the helper process: it reads "width iters" lines and
// answers each with the per-thread rate of one slice at that width.
func refHelperMain(in io.Reader, out io.Writer) error {
	thr := newRefTable()
	var states []*refState
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			return fmt.Errorf("refhelper: bad request %q", sc.Text())
		}
		width, err1 := strconv.Atoi(f[0])
		iters, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || width < 1 || width > len(refSink) || iters < 1 {
			return fmt.Errorf("refhelper: bad request %q", sc.Text())
		}
		for len(states) < width {
			states = append(states, newRefState(thr))
		}
		runtime.GOMAXPROCS(width)
		rate := refRun(states, width, iters)
		if _, err := fmt.Fprintf(out, "%g\n", rate); err != nil {
			return err
		}
	}
	return sc.Err()
}

// hostRef talks to the helper process and keeps every slice it took.
type hostRef struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	rates []float64
}

func startHostRef() (*hostRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-refhelper")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference helper: %w", err)
	}
	return &hostRef{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// factor runs one slice at the given width and returns the host speed
// factor: reference rate ÷ nominal rate.
func (h *hostRef) factor(width int) (float64, error) {
	if _, err := fmt.Fprintf(h.in, "%d %d\n", width, refSliceIters); err != nil {
		return 0, fmt.Errorf("reference helper: %w", err)
	}
	if !h.out.Scan() {
		return 0, fmt.Errorf("reference helper exited: %v", h.out.Err())
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(h.out.Text()), 64)
	if err != nil || !(rate > 0) {
		return 0, fmt.Errorf("reference helper: bad rate %q", h.out.Text())
	}
	h.rates = append(h.rates, rate)
	return hostFactor(rate), nil
}

// close stops the helper and waits for it to exit.
func (h *hostRef) close() error {
	h.in.Close()
	return h.cmd.Wait()
}

// meanRate is the mean reference rate over every slice taken, in
// iterations per second per thread.
func (h *hostRef) meanRate() float64 {
	var s float64
	for _, r := range h.rates {
		s += r
	}
	return s / float64(len(h.rates))
}

// hostFactor converts a reference rate into the host speed factor.
func hostFactor(rate float64) float64 { return rate / nominalRefRate }

// normalize scales a raw interval measured at the given host factor to
// nominal host speed: on a host running at half the nominal rate, a raw
// second of work counts as half a second.
func normalize(raw time.Duration, factor float64) time.Duration {
	return time.Duration(float64(raw) * factor)
}
