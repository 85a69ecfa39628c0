// Package paperdata embeds the numbers the paper reports, used by the
// harness to print paper-vs-measured comparisons (TestTable3AgainstPaper
// and TestAPLCalibrationReport in internal/bench) and by the shape tests
// that assert the qualitative claims hold in the reproduction.
package paperdata

// Table3SizesKB are the message sizes of Table 3 in Kbytes.
var Table3SizesKB = []int{0, 1, 2, 4, 8, 16, 32, 64}

// Table3 holds the snd/recv round-trip times of Table 3 in milliseconds,
// indexed [tool][network][size index]. Networks: "ethernet" (SUN ELC,
// shared 10 Mbit/s), "atm-lan" (SUN IPX, FORE switch), "atm-wan"
// (SUN IPX, NYNET). Express has no atm-wan column (no NYNET port).
var Table3 = map[string]map[string][]float64{
	"pvm": {
		"ethernet": {9.655, 11.693, 14.306, 25.537, 44.392, 61.096, 109.844, 189.120},
		"atm-lan":  {7.991, 8.678, 9.896, 13.673, 18.574, 27.365, 48.028, 88.176},
		"atm-wan":  {7.764, 8.878, 10.105, 14.665, 19.526, 28.679, 53.320, 91.353},
	},
	"p4": {
		"ethernet": {3.199, 3.599, 4.399, 9.332, 24.165, 44.164, 98.996, 173.158},
		"atm-lan":  {2.966, 3.393, 3.748, 4.404, 6.482, 11.191, 19.104, 35.899},
		"atm-wan":  {3.636, 4.168, 4.822, 5.069, 7.459, 13.573, 22.254, 41.725},
	},
	"express": {
		"ethernet": {4.807, 10.375, 18.362, 32.669, 59.166, 111.411, 189.760, 311.700},
		"atm-lan":  {4.152, 7.240, 11.061, 16.990, 27.047, 46.003, 82.566, 153.970},
	},
}

// Table3PlatformKey maps Table 3 network labels to platform catalog keys.
var Table3PlatformKey = map[string]string{
	"ethernet": "sun-ethernet",
	"atm-lan":  "sun-atm-lan",
	"atm-wan":  "sun-atm-wan",
}

// Table4 holds the per-primitive tool rankings of Table 4 (fastest
// first), by platform key.
var Table4 = map[string]map[string][]string{
	"sun-ethernet": {
		"send/receive": {"p4", "pvm", "express"},
		"broadcast":    {"p4", "pvm", "express"},
		"ring":         {"p4", "express", "pvm"},
		"global sum":   {"p4", "express"}, // PVM not available
	},
	"sun-atm-wan": {
		"send/receive": {"p4", "pvm"}, // Express ranked via ATM LAN only
		"broadcast":    {"p4", "pvm"},
		"ring":         {"p4", "pvm"},
	},
	"sun-atm-lan": {
		"send/receive": {"p4", "pvm", "express"},
	},
}

// ADLRating is a usability rating from §3.3.1: NS (not supported), PS
// (partially supported), WS (well supported).
type ADLRating string

// The three rating levels of the usability matrix.
const (
	NS ADLRating = "NS"
	PS ADLRating = "PS"
	WS ADLRating = "WS"
)

// ADLCriteria lists the §2.3 criteria in the order of the usability
// table.
var ADLCriteria = []string{
	"Programming Models Supported",
	"Language Interface",
	"Ease of Programming",
	"Debugging Support",
	"Customization",
	"Error Handling",
	"Run-Time Interface",
	"Integration with other Software Systems",
	"Portability",
}

// ADLMatrix is the paper's usability assessment, [criterion][tool].
var ADLMatrix = map[string]map[string]ADLRating{
	"Programming Models Supported":            {"p4": WS, "pvm": WS, "express": WS},
	"Language Interface":                      {"p4": WS, "pvm": WS, "express": WS},
	"Ease of Programming":                     {"p4": PS, "pvm": WS, "express": PS},
	"Debugging Support":                       {"p4": PS, "pvm": PS, "express": WS},
	"Customization":                           {"p4": PS, "pvm": NS, "express": PS},
	"Error Handling":                          {"p4": PS, "pvm": PS, "express": PS},
	"Run-Time Interface":                      {"p4": PS, "pvm": WS, "express": WS},
	"Integration with other Software Systems": {"p4": PS, "pvm": WS, "express": NS},
	"Portability":                             {"p4": WS, "pvm": WS, "express": WS},
}

// SuiteTable2 reproduces Table 2: the SU PDABS application classes.
var SuiteTable2 = map[string][]string{
	"Numerical Algorithms":    {"Fast Fourier Transform", "LU Decomposition", "Linear Equation Solver", "Matrix Multiplication", "Cryptology"},
	"Signal/Image Processing": {"JPEG Compression", "Hough Transform", "Ray Tracing", "Data Compression"},
	"Simulation/Optimization": {"N-body Simulation", "Monte Carlo Integration", "Traveling Salesman", "Branch and Bound"},
	"Utilities":               {"ADA Compiler", "Parallel Sorting", "Parallel Search", "Distributed Spell Checker", "Distributed Make"},
}

// APLApps are the four applications benchmarked in §3.3.
var APLApps = []string{"jpeg", "fft2d", "montecarlo", "psrs"}

// APLPlatforms maps each APL figure to its platform key and processor
// sweep.
var APLPlatforms = []struct {
	Figure   string
	Platform string
	MaxProcs int
	Tools    []string
}{
	{"fig5", "alpha-fddi", 8, []string{"p4", "pvm", "express"}},
	{"fig6", "sp1-switch", 8, []string{"p4", "pvm", "express"}},
	{"fig7", "sun-atm-wan", 4, []string{"p4", "pvm"}},
	{"fig8", "sun-ethernet", 8, []string{"p4", "pvm", "express"}},
}

// APLSingleProcSeconds anchors the single-processor execution times read
// off Figures 5-8 (approximate — the paper publishes plots, not tables).
// Indexed [figure][app] in seconds. Used for order-of-magnitude
// comparison (TestAPLCalibrationReport in internal/bench prints it),
// not for strict assertions.
var APLSingleProcSeconds = map[string]map[string]float64{
	"fig5": {"fft2d": 0.013, "jpeg": 4.3, "montecarlo": 1.7, "psrs": 0.80},
	"fig6": {"fft2d": 0.028, "jpeg": 9.5, "montecarlo": 2.8, "psrs": 2.0},
	"fig7": {"fft2d": 0.022, "jpeg": 21.0, "montecarlo": 7.5, "psrs": 5.0},
	"fig8": {"fft2d": 0.30, "jpeg": 38.0, "montecarlo": 9.5, "psrs": 9.0},
}
