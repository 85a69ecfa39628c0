// Package apps is the registry of the SU PDABS benchmark applications
// (Table 2 of the paper). The four applications benchmarked in §3.3 —
// JPEG compression, 2D-FFT, Monte Carlo integration, and Parallel
// Sorting by Regular Sampling — are first-class: each has a sequential
// reference, a parallel SPMD implementation over the mpt.Comm interface,
// and a verifier that checks the distributed run against the reference.
package apps

import (
	"fmt"

	"tooleval/internal/apps/dmake"
	"tooleval/internal/apps/fft"
	"tooleval/internal/apps/hough"
	"tooleval/internal/apps/jpeg"
	"tooleval/internal/apps/knapsack"
	"tooleval/internal/apps/linsolve"
	"tooleval/internal/apps/lu"
	"tooleval/internal/apps/lzw"
	"tooleval/internal/apps/matmul"
	"tooleval/internal/apps/montecarlo"
	"tooleval/internal/apps/nbody"
	"tooleval/internal/apps/psearch"
	"tooleval/internal/apps/psrs"
	"tooleval/internal/apps/raytrace"
	"tooleval/internal/apps/spellcheck"
	"tooleval/internal/apps/tsp"
	"tooleval/internal/apps/vigenere"
	"tooleval/internal/mpt"
)

// App is one runnable benchmark application.
type App struct {
	// Name is the registry key ("jpeg", "fft2d", ...); Class is the
	// Table 2 category.
	Name  string
	Class string
	// Description is the one-line summary used in reports.
	Description string
	// Run executes the parallel implementation on one rank; rank 0
	// returns the result value. scale shrinks the default workload
	// (1.0 = paper scale).
	Run func(ctx *mpt.Ctx, scale float64) (any, error)
	// Verify checks a rank-0 result (for procs ranks at the given scale)
	// against the sequential reference. The references of jpeg and psrs
	// are computed once per (app, scale) and shared by every check.
	Verify func(value any, procs int, scale float64) error
	// MinProcsDivisor constrains processor counts (FFT needs N%p == 0).
	ValidProcs func(p int) bool
}

// Registry returns the benchmarked applications in the paper's order.
func Registry() []App {
	return []App{
		{
			Name:        "jpeg",
			Class:       "Signal/Image Processing",
			Description: "JPEG compression of a 512x512 image (DCT + quantization + Huffman), host-node model",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := jpeg.Parallel(ctx, jpeg.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*jpeg.Result)
				if !ok {
					return fmt.Errorf("jpeg: unexpected result type %T", v)
				}
				cfg := jpeg.DefaultConfig().Scaled(scale)
				ref, err := reference(references, "jpeg", scale, func() (*jpeg.Reference, error) {
					return jpeg.NewReference(cfg)
				})
				if err != nil {
					return err
				}
				return jpeg.VerifyAgainst(cfg, ref, res)
			},
			ValidProcs: func(p int) bool { return p >= 1 },
		},
		{
			Name:        "fft2d",
			Class:       "Numerical Algorithms",
			Description: "2D complex FFT (rows, transpose, columns) with all-to-all exchange",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := fft.Parallel(ctx, fft.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*fft.Result)
				if !ok {
					return fmt.Errorf("fft2d: unexpected result type %T", v)
				}
				return fft.VerifyAgainstSequential(fft.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: func(p int) bool {
				n := fft.DefaultConfig().N
				return p >= 1 && p <= n && n%p == 0
			},
		},
		{
			Name:        "montecarlo",
			Class:       "Simulation/Optimization",
			Description: "Monte Carlo integration of 4/(1+x^2) over [0,1] (estimates pi)",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := montecarlo.Parallel(ctx, montecarlo.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*montecarlo.Result)
				if !ok {
					return fmt.Errorf("montecarlo: unexpected result type %T", v)
				}
				return montecarlo.VerifyAgainstSequential(montecarlo.DefaultConfig().Scaled(scale), procs, res)
			},
			ValidProcs: func(p int) bool { return p >= 1 },
		},
		{
			Name:        "psrs",
			Class:       "Utilities",
			Description: "Parallel Sorting by Regular Sampling over 400K keys",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := psrs.Parallel(ctx, psrs.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*psrs.Result)
				if !ok {
					return fmt.Errorf("psrs: unexpected result type %T", v)
				}
				ref, err := reference(references, "psrs", scale, func() (*psrs.Result, error) {
					return psrs.Sequential(psrs.DefaultConfig().Scaled(scale))
				})
				if err != nil {
					return err
				}
				return psrs.VerifyAgainst(ref, res)
			},
			ValidProcs: func(p int) bool { return p >= 1 },
		},
	}
}

// anyProcs accepts any processor count.
func anyProcs(p int) bool { return p >= 1 }

// ExtendedRegistry returns the full SU PDABS suite: the four benchmarked
// applications plus the rest of Table 2 (matrix multiplication, LU
// decomposition, linear equation solver, N-body, traveling salesman /
// branch and bound, Hough transform, ray tracing, data compression,
// cryptology, parallel search, distributed spell checker, distributed
// make). The paper's ADA-compiler entry is the one member not built: a
// compiler front-end adds no message-passing behaviour the distributed
// make does not already exercise (see DESIGN.md).
func ExtendedRegistry() []App {
	ext := []App{
		{
			Name:        "matmul",
			Class:       "Numerical Algorithms",
			Description: "Dense matrix multiplication, row bands + broadcast B",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return matmul.Parallel(ctx, matmul.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*matmul.Result)
				if !ok {
					return fmt.Errorf("matmul: unexpected result type %T", v)
				}
				return matmul.VerifyAgainstSequential(matmul.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "lu",
			Class:       "Numerical Algorithms",
			Description: "LU decomposition, cyclic rows + pivot-row broadcast",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return lu.Parallel(ctx, lu.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*lu.Result)
				if !ok {
					return fmt.Errorf("lu: unexpected result type %T", v)
				}
				return lu.VerifyAgainstSequential(lu.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "linsolve",
			Class:       "Numerical Algorithms",
			Description: "Jacobi linear equation solver, iterate re-broadcast per sweep",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return linsolve.Parallel(ctx, linsolve.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*linsolve.Result)
				if !ok {
					return fmt.Errorf("linsolve: unexpected result type %T", v)
				}
				return linsolve.VerifyAgainstSequential(linsolve.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "nbody",
			Class:       "Simulation/Optimization",
			Description: "Direct O(n²) N-body with systolic ring circulation",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return nbody.Parallel(ctx, nbody.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*nbody.Result)
				if !ok {
					return fmt.Errorf("nbody: unexpected result type %T", v)
				}
				return nbody.VerifyAgainstSequential(nbody.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "tsp",
			Class:       "Simulation/Optimization",
			Description: "Exact TSP by branch and bound, first-hop branches partitioned",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return tsp.Parallel(ctx, tsp.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*tsp.Result)
				if !ok {
					return fmt.Errorf("tsp: unexpected result type %T", v)
				}
				return tsp.VerifyAgainstSequential(tsp.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "knapsack",
			Class:       "Simulation/Optimization",
			Description: "0/1 knapsack by branch and bound, top subtrees partitioned",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return knapsack.Parallel(ctx, knapsack.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*knapsack.Result)
				if !ok {
					return fmt.Errorf("knapsack: unexpected result type %T", v)
				}
				return knapsack.VerifyAgainstSequential(knapsack.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "hough",
			Class:       "Signal/Image Processing",
			Description: "Hough line transform, row bands + accumulator reduction",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return hough.Parallel(ctx, hough.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*hough.Result)
				if !ok {
					return fmt.Errorf("hough: unexpected result type %T", v)
				}
				return hough.VerifyAgainstSequential(hough.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "raytrace",
			Class:       "Signal/Image Processing",
			Description: "Recursive ray tracer, scan-line bands",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return raytrace.Parallel(ctx, raytrace.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*raytrace.Result)
				if !ok {
					return fmt.Errorf("raytrace: unexpected result type %T", v)
				}
				return raytrace.VerifyAgainstSequential(raytrace.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "lzw",
			Class:       "Signal/Image Processing",
			Description: "LZW data compression, block-parallel",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return lzw.Parallel(ctx, lzw.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*lzw.Result)
				if !ok {
					return fmt.Errorf("lzw: unexpected result type %T", v)
				}
				return lzw.VerifyAgainstSequential(lzw.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "vigenere",
			Class:       "Numerical Algorithms",
			Description: "Vigenère cryptanalysis, key-length space partitioned",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return vigenere.Parallel(ctx, vigenere.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*vigenere.Result)
				if !ok {
					return fmt.Errorf("vigenere: unexpected result type %T", v)
				}
				return vigenere.VerifyAgainstSequential(vigenere.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "psearch",
			Class:       "Utilities",
			Description: "Boyer-Moore-Horspool parallel text search with overlap chunks",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return psearch.Parallel(ctx, psearch.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*psearch.Result)
				if !ok {
					return fmt.Errorf("psearch: unexpected result type %T", v)
				}
				return psearch.VerifyAgainstSequential(psearch.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "spellcheck",
			Class:       "Utilities",
			Description: "Distributed spell checker: dictionary broadcast + chunk check",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return spellcheck.Parallel(ctx, spellcheck.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*spellcheck.Result)
				if !ok {
					return fmt.Errorf("spellcheck: unexpected result type %T", v)
				}
				return spellcheck.VerifyAgainstSequential(spellcheck.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name:        "dmake",
			Class:       "Utilities",
			Description: "Distributed make: master/worker DAG build with dynamic dispatch",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return dmake.Parallel(ctx, dmake.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*dmake.Result)
				if !ok {
					return fmt.Errorf("dmake: unexpected result type %T", v)
				}
				return dmake.VerifyAgainstSequential(dmake.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
	}
	return append(Registry(), ext...)
}

// Get returns the named application from the extended registry.
func Get(name string) (App, error) {
	for _, a := range ExtendedRegistry() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("apps: unknown application %q", name)
}

// Names lists the benchmarked (paper §3.3) application keys in order.
func Names() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, a := range reg {
		out[i] = a.Name
	}
	return out
}

// ExtendedNames lists every suite application key.
func ExtendedNames() []string {
	reg := ExtendedRegistry()
	out := make([]string, len(reg))
	for i, a := range reg {
		out[i] = a.Name
	}
	return out
}
