// Package apps is the registry of the four applications the paper
// benchmarks in §3.3: JPEG compression, 2D-FFT, Monte Carlo
// integration, and Parallel Sorting by Regular Sampling. Each has a
// sequential reference, a parallel SPMD implementation over the
// mpt.Comm interface, and a verifier that checks the distributed run
// against the reference. ExtendedRegistry adds five more SU PDABS
// applications, one or more from each Table 2 class; the full Table 2
// catalog is paperdata.SuiteTable2.
package apps

import (
	"fmt"

	"tooleval/internal/apps/fft"
	"tooleval/internal/apps/jpeg"
	"tooleval/internal/apps/lzw"
	"tooleval/internal/apps/montecarlo"
	"tooleval/internal/apps/nbody"
	"tooleval/internal/apps/psearch"
	"tooleval/internal/apps/psrs"
	"tooleval/internal/apps/raytrace"
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
	// ValidProcs reports whether the app runs on p processors (FFT
	// needs N%p == 0).
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

// ExtendedRegistry returns the four benchmarked applications plus five
// more SU PDABS applications from Table 2: N-body, ray tracing, data
// compression, cryptology and parallel search. No paper experiment runs
// them; an app spec or remote cell may name them.
func ExtendedRegistry() []App {
	ext := []App{
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
