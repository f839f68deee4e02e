// Package netsim is a flow-level network simulator replacing the
// PlanetLab testbed of the paper's Appendix ("Validation of the constant
// latency"). The experiment there: 60 servers, each sending background
// traffic at a configured per-flow throughput to 5 random neighbors,
// while RTTs are sampled 300 times per (server, neighbor) pair. The
// finding: average RTT is flat until the background traffic approaches
// the node's available bandwidth (~0.2 MB/s per flow ⇒ ~8 Mb/s per node
// in their setup), and rises with growing variance beyond it.
//
// The simulator models the dominant PlanetLab bottleneck: per-node
// egress traffic shaping (PlanetLab slices were rate-capped, 10 Mb/s by
// default), while ingress rides over-provisioned university links. A
// probe's RTT is the base propagation delay plus M/M/1-style queueing
// at the sender's shaper (probe) and the responder's shaper (reply),
// plus lognormal measurement noise and retransmission spikes when the
// offered load exceeds the shaping rate. This reproduces the
// flat-then-rising RTT curve with growing dispersion that the paper's
// Table IV reports — the behaviour its constant-latency assumption
// rests on.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
)

// Config parametrizes the simulation. DefaultConfig matches the paper's
// setup (60 servers, 5 neighbors) with the shaping rate of a default
// PlanetLab slice, placing the RTT knee at ≈0.2 MB/s per flow.
type Config struct {
	// Servers is the number of nodes (paper: 60).
	Servers int
	// Neighbors is the number of background-flow destinations per node
	// (paper: 5).
	Neighbors int
	// ShapingRateKBps is each node's egress traffic-shaping rate in
	// KB/s. With 5 flows the shaper saturates at per-flow throughput =
	// rate/5. Default 1250 KB/s (the 10 Mb/s PlanetLab slice cap).
	ShapingRateKBps float64
	// PacketKB is the probe packet size used for the service-time base
	// of the queueing delay.
	PacketKB float64
	// NoiseSigma is the σ of the lognormal multiplicative measurement
	// noise on each RTT sample.
	NoiseSigma float64
	// MaxUtilization caps the effective utilization entering the
	// ρ/(1−ρ) queueing term, bounding the standing-queue delay of a
	// saturated shaper.
	MaxUtilization float64
	// RetransRTOms is the extra delay a probe suffers when lost and
	// retransmitted; losses appear once offered load exceeds the
	// shaping rate.
	RetransRTOms float64
}

// DefaultConfig returns the paper-matched configuration.
func DefaultConfig() Config {
	return Config{
		Servers:         60,
		Neighbors:       5,
		ShapingRateKBps: 1250,
		PacketKB:        1.5,
		NoiseSigma:      0.04,
		MaxUtilization:  0.95,
		RetransRTOms:    200,
	}
}

// Sim is an instantiated network: topology, base latencies and the
// current background-traffic level.
type Sim struct {
	cfg       Config
	base      [][]float64 // one-way propagation delay between nodes, ms
	neighbors [][]int
	offered   []float64 // offered egress KB/s per node (before shaping)
	egress    []float64 // shaped egress KB/s per node
	rng       *rand.Rand
}

// New builds a simulator over the given one-way latency matrix (ms); the
// matrix must be at least cfg.Servers large in both dimensions — checked
// here, because an undersized matrix would otherwise surface only as an
// index panic deep inside ProbeRTT. Neighbor sets are drawn with rng.
func New(cfg Config, lat [][]float64, rng *rand.Rand) *Sim {
	if cfg.Servers < 1 {
		panic(fmt.Sprintf("netsim: config has %d servers, need at least 1", cfg.Servers))
	}
	if len(lat) < cfg.Servers {
		panic(fmt.Sprintf("netsim: latency matrix has %d rows, need at least cfg.Servers=%d", len(lat), cfg.Servers))
	}
	for i := 0; i < cfg.Servers; i++ {
		if len(lat[i]) < cfg.Servers {
			panic(fmt.Sprintf("netsim: latency row %d has %d entries, need at least cfg.Servers=%d", i, len(lat[i]), cfg.Servers))
		}
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	s := &Sim{
		cfg:       cfg,
		base:      lat,
		neighbors: make([][]int, cfg.Servers),
		offered:   make([]float64, cfg.Servers),
		egress:    make([]float64, cfg.Servers),
		rng:       rng,
	}
	for i := 0; i < cfg.Servers; i++ {
		perm := rng.Perm(cfg.Servers)
		for _, j := range perm {
			if j == i {
				continue
			}
			s.neighbors[i] = append(s.neighbors[i], j)
			if len(s.neighbors[i]) == cfg.Neighbors {
				break
			}
		}
	}
	return s
}

// Pairs lists every measured (source, neighbor) pair, as in the paper's
// experiment.
func (s *Sim) Pairs() [][2]int {
	var out [][2]int
	for i, ns := range s.neighbors {
		for _, j := range ns {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// SetBackgroundThroughput configures every node to offer perFlowKBps to
// each of its neighbors. The shaper delivers at most ShapingRateKBps in
// total, mirroring the paper's "if a particular throughput was not
// achievable, the server was just sending data with the maximal
// achievable throughput".
func (s *Sim) SetBackgroundThroughput(perFlowKBps float64) {
	for i := range s.offered {
		demand := perFlowKBps * float64(len(s.neighbors[i]))
		s.offered[i] = demand
		s.egress[i] = math.Min(demand, s.cfg.ShapingRateKBps)
	}
}

// shaperDelay returns the queueing delay (ms) a probe suffers crossing
// node i's egress shaper. Probe packets are far smaller than the
// background packets that fill the queue, so the low-utilization delay
// is essentially zero; we model the waiting time with the convex ramp
// util⁴/(1−util), which stays negligible below ~60% utilization and
// blows up near saturation — matching the flat-then-rising Table IV
// profile. (The exponent is load-bearing: table4.golden pins this exact
// curve, so the comment documents the code, not the other way around.)
func (s *Sim) shaperDelay(i int) float64 {
	util := s.egress[i] / s.cfg.ShapingRateKBps
	if util > s.cfg.MaxUtilization {
		util = s.cfg.MaxUtilization
	}
	if util <= 0 {
		return 0
	}
	serviceMs := s.cfg.PacketKB / s.cfg.ShapingRateKBps * 1000
	u4 := util * util * util * util
	return serviceMs * u4 / (1 - util)
}

// lossProb returns the probe-loss probability at node i's shaper: zero
// while the offered load fits the shaping rate, growing with the
// overload factor beyond it.
func (s *Sim) lossProb(i int) float64 {
	ratio := s.offered[i] / s.cfg.ShapingRateKBps
	if ratio <= 1 {
		return 0
	}
	p := 0.02 * (ratio - 1)
	if p > 0.08 {
		p = 0.08
	}
	return p
}

// ProbeRTT samples one RTT measurement between i and j (ms): the probe
// crosses i's shaper, the reply crosses j's shaper.
func (s *Sim) ProbeRTT(i, j int) float64 {
	base := s.base[i][j] + s.base[j][i]
	queue := s.shaperDelay(i) + s.shaperDelay(j)
	rtt := (base + queue) * math.Exp(s.cfg.NoiseSigma*s.rng.NormFloat64())
	if s.rng.Float64() < s.lossProb(i)+s.lossProb(j) {
		rtt += s.cfg.RetransRTOms
	}
	return rtt
}

// MeasureRTT samples n probes between i and j and returns them.
func (s *Sim) MeasureRTT(i, j, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = s.ProbeRTT(i, j)
	}
	return out
}

// AverageRTT returns the mean of n probes between i and j — the paper
// uses the average of 300 samples per pair and throughput level.
func (s *Sim) AverageRTT(i, j, n int) float64 {
	var sum float64
	for k := 0; k < n; k++ {
		sum += s.ProbeRTT(i, j)
	}
	return sum / float64(n)
}
