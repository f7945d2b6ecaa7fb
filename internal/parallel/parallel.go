// Package parallel is the bounded worker pool shared by the
// reproduction's hot kernels (similarity signature batches, DIMSUM pair
// scoring, k-means assignment, per-site map stages, per-dataset placement
// planning).
//
// The package exists to make data parallelism safe for a system whose
// headline guarantee is byte-determinism: every primitive here assigns
// work by index and merges results in index order, so the observable
// output of a kernel depends only on its input — never on goroutine
// scheduling. Kernels that fold floating-point values pool only the
// per-element work and fold the results sequentially in index order
// afterwards, so even non-associative float sums are bit-identical
// across widths; see rdd.KMeans's weight total for the pattern.
//
// Width resolution: an explicit width > 0 wins; width <= 0 means "use
// the process default", which is GOMAXPROCS at init, overridable by the
// BOHR_PARALLEL_WIDTH environment variable or SetDefaultWidth. A
// resolved width of 1 runs the loop inline on the caller's goroutine —
// that path is the reference semantics the pooled path must match.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWidth is the environment variable consulted once at init to seed
// the process-wide default width. The determinism gate in the Makefile
// uses it to force width 1 and width N over identical runs.
const EnvWidth = "BOHR_PARALLEL_WIDTH"

var defaultWidth atomic.Int64

func init() {
	defaultWidth.Store(int64(widthFromEnv()))
}

func widthFromEnv() int {
	w := runtime.GOMAXPROCS(0)
	if s := os.Getenv(EnvWidth); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			w = n
		}
	}
	return w
}

// DefaultWidth returns the process-wide pool width used when a kernel
// passes width <= 0.
func DefaultWidth() int { return int(defaultWidth.Load()) }

// SetDefaultWidth sets the process-wide default width and returns the
// previous value. n <= 0 restores the GOMAXPROCS/env-derived default.
func SetDefaultWidth(n int) int {
	if n <= 0 {
		n = widthFromEnv()
	}
	return int(defaultWidth.Swap(int64(n)))
}

// Resolve maps a caller-supplied width to the effective one: positive
// values pass through, everything else takes the process default.
func Resolve(width int) int {
	if width > 0 {
		return width
	}
	return DefaultWidth()
}

// panicBox carries a recovered panic value from a worker goroutine back
// to the calling goroutine, where it is re-raised.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

func (p *panicBox) capture(v any) {
	p.mu.Lock()
	if !p.set {
		p.val, p.set = v, true
	}
	p.mu.Unlock()
}

func (p *panicBox) rethrow() {
	if p.set {
		panic(p.val)
	}
}

// ForEach runs fn(i) for i in [0, n) using at most `width` goroutines
// (width <= 0 ⇒ DefaultWidth). It always runs every index — there is no
// early cancellation — and returns the error of the LOWEST failing
// index, matching what a sequential loop that collects the first error
// would report. This makes the returned error independent of goroutine
// scheduling; kernels here treat errors as exceptional, so the cost of
// finishing the loop after a failure is irrelevant. A panic in fn is
// re-raised on the calling goroutine.
func ForEach(width, n int, fn func(i int) error) error {
	width = Resolve(width)
	if n <= 0 {
		return nil
	}
	if width <= 1 || n == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if width > n {
		width = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					box.capture(r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	box.rethrow()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapOrdered runs fn(i) for i in [0, n) on the pool and returns the
// results in index order — the deterministic ordered merge every pooled
// kernel builds on. Error and panic semantics match ForEach; on error
// the partial results are returned alongside it (entries whose fn
// failed hold the zero value).
func MapOrdered[T any](width, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(width, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// Chunks splits [0, n) into contiguous [lo, hi) half-open ranges of at
// most `grain` elements. Kernels that fold floats chunk with a FIXED
// grain (independent of pool width) so the reduction tree — and hence
// the bit pattern of the folded sums — is identical at every width.
func Chunks(n, grain int) [][2]int {
	if n <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = 1
	}
	out := make([][2]int, 0, (n+grain-1)/grain)
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
