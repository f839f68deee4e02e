package delaylb

import (
	"fmt"
	"math/rand"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/workload"
)

// NetworkKind selects a latency-matrix family for a Scenario.
type NetworkKind string

const (
	// NetPlanetLab is the synthetic heterogeneous network with
	// PlanetLab-like statistics (clustered geography, lognormal jitter,
	// shortest-path completion) — the paper's "PL" setting.
	NetPlanetLab NetworkKind = "planetlab"
	// NetHomogeneous sets every off-diagonal latency to Scenario.Latency
	// — the paper's "c = 20 ms" setting.
	NetHomogeneous NetworkKind = "homogeneous"
	// NetEuclidean places servers uniformly in a square of side
	// Scenario.Latency milliseconds and uses Euclidean distances.
	NetEuclidean NetworkKind = "euclidean"
	// NetClustered is the metro/PoP topology of the large-m scale tier:
	// servers are grouped into Scenario.Clusters metros, latency is one
	// small intra-metro value within a metro and one shared backbone
	// delay per metro pair (metro centers sit in a square of side
	// Scenario.Latency ms). The latency matrix is exactly
	// block-structured, which the Frank–Wolfe solver detects and
	// exploits — the realistic structure of large
	// deployments, where each organization routes to a handful of
	// nearby sites.
	NetClustered NetworkKind = "clustered"
)

// LoadKind selects the initial load distribution for a Scenario.
type LoadKind string

const (
	// LoadUniform draws loads uniformly from [0, 2·avg].
	LoadUniform LoadKind = "uniform"
	// LoadExponential draws loads exponentially with mean avg.
	LoadExponential LoadKind = "exp"
	// LoadPeak puts the entire avg (interpreted as a total) on one
	// random server — the paper's peak distribution.
	LoadPeak LoadKind = "peak"
	// LoadZipf draws loads from a Zipf popularity curve with the given
	// average — the CDN-style extension.
	LoadZipf LoadKind = "zipf"
)

// SpeedKind selects the server speed family for a Scenario.
type SpeedKind string

const (
	// SpeedUniform draws speeds uniformly from [SpeedMin, SpeedMax]
	// (paper: [1, 5]).
	SpeedUniform SpeedKind = "uniform"
	// SpeedConst gives every server speed SpeedMin.
	SpeedConst SpeedKind = "const"
)

// Scenario is a declarative, deterministic description of a problem
// instance: network kind × load distribution × speed model × size × seed.
// It subsumes the ad-hoc generator free functions: commands, examples and
// the experiment harness all construct instances through it, so a
// scenario printed in one place can be rebuilt bit-identically in
// another.
//
// The zero value is not useful; start from NewScenario and refine with
// the With* methods (value semantics — each call returns a modified
// copy, so partially-built scenarios can be shared and forked):
//
//	sys, err := delaylb.NewScenario(50).
//		WithLoads(delaylb.LoadZipf, 200).
//		WithSeed(7).
//		Build()
type Scenario struct {
	// Servers is m, the number of organizations.
	Servers int
	// Network is the latency family (default NetPlanetLab).
	Network NetworkKind
	// Latency parameterizes the network: the off-diagonal delay for
	// NetHomogeneous and the square side for NetEuclidean. The shared
	// default is 20 ms (the paper's homogeneous setting); for a
	// continent-scale Euclidean topology set a larger side with
	// WithLatency (e.g. 100). Ignored for NetPlanetLab.
	Latency float64
	// LoadDist is the load distribution (default LoadExponential).
	LoadDist LoadKind
	// AvgLoad is the mean load per server, or the total for LoadPeak
	// (default 100).
	AvgLoad float64
	// Speeds is the speed family (default SpeedUniform).
	Speeds SpeedKind
	// SpeedMin and SpeedMax bound SpeedUniform (defaults 1 and 5);
	// SpeedConst uses SpeedMin as the constant speed.
	SpeedMin, SpeedMax float64
	// Clusters is the number of metro clusters for NetClustered
	// (0 means the default of 8); other network kinds ignore it.
	Clusters int
	// DenseLatency forces NetClustered scenarios to materialize the
	// dense m×m latency matrix instead of the block (metro table +
	// labels) representation. The two describe bit-identical networks;
	// the dense form exists as the verification oracle the block fast
	// paths are pinned against, and for measuring what the block
	// representation saves. Other network kinds are always dense.
	DenseLatency bool
	// Seed makes the scenario deterministic (default 1). The same
	// Scenario value always builds the same System.
	Seed int64
}

// NewScenario returns the default scenario at the given size: a
// PlanetLab-like network, exponential loads of average 100, speeds
// uniform on [1, 5], seed 1 — the workhorse configuration of the paper's
// §VI evaluation.
func NewScenario(servers int) Scenario {
	return Scenario{
		Servers:  servers,
		Network:  NetPlanetLab,
		Latency:  20,
		LoadDist: LoadExponential,
		AvgLoad:  100,
		Speeds:   SpeedUniform,
		SpeedMin: 1,
		SpeedMax: 5,
		Seed:     1,
	}
}

// WithNetwork selects the latency family, keeping the current Latency
// parameter.
func (sc Scenario) WithNetwork(kind NetworkKind) Scenario {
	sc.Network = kind
	return sc
}

// WithLatency sets the network parameter: the homogeneous off-diagonal
// delay or the Euclidean square side, in milliseconds.
func (sc Scenario) WithLatency(ms float64) Scenario {
	sc.Latency = ms
	return sc
}

// WithLoads selects the load distribution and its average (total for
// LoadPeak).
func (sc Scenario) WithLoads(kind LoadKind, avg float64) Scenario {
	sc.LoadDist = kind
	sc.AvgLoad = avg
	return sc
}

// WithSpeeds selects the speed family and its range; for SpeedConst only
// lo is used.
func (sc Scenario) WithSpeeds(kind SpeedKind, lo, hi float64) Scenario {
	sc.Speeds = kind
	sc.SpeedMin = lo
	sc.SpeedMax = hi
	return sc
}

// WithSeed fixes the scenario's random seed.
func (sc Scenario) WithSeed(seed int64) Scenario {
	sc.Seed = seed
	return sc
}

// WithClusters sets the metro count for NetClustered (and selects that
// network kind, since the parameter is meaningless elsewhere).
func (sc Scenario) WithClusters(k int) Scenario {
	sc.Network = NetClustered
	sc.Clusters = k
	return sc
}

// WithDenseLatency forces the dense matrix representation on clustered
// scenarios — the verification-oracle twin of the default block form.
func (sc Scenario) WithDenseLatency() Scenario {
	sc.DenseLatency = true
	return sc
}

// String renders the scenario the way experiment logs label runs.
func (sc Scenario) String() string {
	if sc.Network == NetClustered {
		return fmt.Sprintf("m=%d net=%s(k=%d) dist=%s avg=%g speeds=%s seed=%d",
			sc.Servers, sc.Network, sc.clusters(), sc.LoadDist, sc.AvgLoad, sc.Speeds, sc.Seed)
	}
	return fmt.Sprintf("m=%d net=%s dist=%s avg=%g speeds=%s seed=%d",
		sc.Servers, sc.Network, sc.LoadDist, sc.AvgLoad, sc.Speeds, sc.Seed)
}

// clusters resolves the effective metro count.
func (sc Scenario) clusters() int {
	if sc.Clusters <= 0 {
		return 8
	}
	return sc.Clusters
}

// Validate checks that every field names a known family and the numeric
// parameters are usable.
func (sc Scenario) Validate() error {
	if sc.Servers < 1 {
		return fmt.Errorf("delaylb: scenario needs at least 1 server, got %d", sc.Servers)
	}
	switch sc.Network {
	case NetPlanetLab:
	case NetHomogeneous, NetEuclidean, NetClustered:
		if sc.Latency <= 0 {
			return fmt.Errorf("delaylb: scenario network %q needs Latency > 0, got %g", sc.Network, sc.Latency)
		}
	default:
		return fmt.Errorf("delaylb: unknown network kind %q", sc.Network)
	}
	if sc.Clusters < 0 {
		return fmt.Errorf("delaylb: scenario Clusters must be >= 0, got %d", sc.Clusters)
	}
	switch sc.LoadDist {
	case LoadUniform, LoadExponential, LoadPeak, LoadZipf:
	default:
		return fmt.Errorf("delaylb: unknown load distribution %q", sc.LoadDist)
	}
	if sc.AvgLoad < 0 {
		return fmt.Errorf("delaylb: scenario AvgLoad must be >= 0, got %g", sc.AvgLoad)
	}
	switch sc.Speeds {
	case SpeedUniform:
		if sc.SpeedMin <= 0 || sc.SpeedMax < sc.SpeedMin {
			return fmt.Errorf("delaylb: scenario speed range [%g, %g] invalid", sc.SpeedMin, sc.SpeedMax)
		}
	case SpeedConst:
		if sc.SpeedMin <= 0 {
			return fmt.Errorf("delaylb: scenario const speed must be > 0, got %g", sc.SpeedMin)
		}
	default:
		return fmt.Errorf("delaylb: unknown speed kind %q", sc.Speeds)
	}
	return nil
}

// Build materializes the scenario into a System. Identical scenarios
// build identical systems: a single seed-derived RNG stream is consumed
// in a fixed order (latencies, then speeds, then loads).
func (sc Scenario) Build() (*System, error) {
	in, err := sc.instance()
	if err != nil {
		return nil, err
	}
	return &System{in: in}, nil
}

// Instance materializes the scenario into the module-internal instance
// representation shared with the experiment harness (the sweep package
// builds every experiment cell through it). The returned type lives in
// an internal package, so code outside this module should use Build,
// which wraps the same instance in a System.
func (sc Scenario) Instance() (*model.Instance, error) {
	return sc.instance()
}

func (sc Scenario) instance() (*model.Instance, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	var lat [][]float64
	var blockDelay [][]float64
	var labels []int
	switch sc.Network {
	case NetHomogeneous:
		lat = netmodel.Homogeneous(sc.Servers, sc.Latency)
	case NetEuclidean:
		lat = netmodel.Euclidean(sc.Servers, sc.Latency, rng)
	case NetClustered:
		// Intra-metro latency is 5% of the backbone scale: a 100 ms
		// continent gives ~5 ms within a metro. The default build keeps
		// the O(m + k²) block representation; WithDenseLatency
		// materializes the bit-identical dense oracle instead.
		if sc.DenseLatency {
			lat, labels = netmodel.Clustered(sc.Servers, sc.clusters(), 0.05*sc.Latency, sc.Latency, rng)
		} else {
			blockDelay, labels = netmodel.ClusteredBlock(sc.Servers, sc.clusters(), 0.05*sc.Latency, sc.Latency, rng)
		}
	default:
		lat = netmodel.PlanetLab(sc.Servers, rng)
	}
	var speeds []float64
	switch sc.Speeds {
	case SpeedConst:
		speeds = workload.ConstSpeeds(sc.Servers, sc.SpeedMin)
	default:
		speeds = workload.UniformSpeeds(sc.Servers, sc.SpeedMin, sc.SpeedMax, rng)
	}
	loads := workload.Loads(workload.Kind(sc.LoadDist), sc.Servers, sc.AvgLoad, rng)
	if blockDelay != nil {
		return model.NewBlockInstance(speeds, loads, blockDelay, labels)
	}
	in, err := model.NewInstance(speeds, loads, lat)
	if err != nil {
		return nil, err
	}
	in.Cluster = labels
	return in, nil
}

// ParseScenario maps command-line style names onto a Scenario — the
// flag→scenario translation used by cmd/lbsim. Accepted aliases:
//
//	network: "pl" | "planetlab" | "c20" | "homogeneous" | "euclidean" |
//	         "clustered" | "metro"
//	dist:    "uniform" | "exp" | "peak" | "zipf"
//	speeds:  "uniform" | "const"
//
// Empty strings keep the NewScenario defaults; avg and seed are taken
// verbatim (avg 0 really means zero load, seed 0 really means seed 0 —
// negative avg is rejected by Validate).
func ParseScenario(servers int, network, dist, speeds string, avg float64, seed int64) (Scenario, error) {
	sc := NewScenario(servers)
	switch network {
	case "", "pl", "planetlab":
		sc.Network = NetPlanetLab
	case "c20", "homogeneous":
		sc.Network = NetHomogeneous
	case "euclidean":
		sc.Network = NetEuclidean
	case "clustered", "metro":
		sc.Network = NetClustered
	default:
		return sc, fmt.Errorf("delaylb: unknown network %q (want pl|c20|euclidean|clustered)", network)
	}
	switch dist {
	case "":
	case "uniform", "exp", "peak", "zipf":
		sc.LoadDist = LoadKind(dist)
	default:
		return sc, fmt.Errorf("delaylb: unknown load distribution %q (want uniform|exp|peak|zipf)", dist)
	}
	switch speeds {
	case "":
	case "uniform":
		sc.Speeds = SpeedUniform
	case "const":
		sc.Speeds = SpeedConst
	default:
		return sc, fmt.Errorf("delaylb: unknown speed kind %q (want uniform|const)", speeds)
	}
	sc.AvgLoad = avg
	sc.Seed = seed
	return sc, sc.Validate()
}
