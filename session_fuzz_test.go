package delaylb

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// churnPair is a session under test and its oracle twin. Both receive
// every call; the oracle reads after each one, so it settles every edit
// on its own, while the session reads only when the sequence does and
// settles its edits in bursts.
type churnPair struct {
	name      string
	s, o      *Session
	block     bool // the pair started block-backed
	densified bool // a join's rows broke the metro table
}

// call runs f on both sessions and requires the same error, or nil, from
// each. On a block pair that has kept its metro table, a structured call
// must not materialize a dense matrix.
func (p *churnPair) call(t *testing.T, what string, structured bool, f func(*Session) error) error {
	t.Helper()
	before := DenseMaterializations()
	err := f(p.s)
	if structured && p.block && !p.densified {
		if moved := DenseMaterializations() - before; moved != 0 {
			t.Fatalf("%s: %s materialized %d dense matrices", p.name, what, moved)
		}
	}
	oerr := f(p.o)
	if fmt.Sprint(err) != fmt.Sprint(oerr) {
		t.Fatalf("%s: %s returned %v, its oracle %v", p.name, what, err, oerr)
	}
	p.o.Cost()
	if p.block && !p.densified {
		_, _, ok := p.o.BlockLatency()
		p.densified = !ok
	}
	if a, b := p.s.M(), p.o.M(); a != b {
		t.Fatalf("%s: after %s M() is %d, its oracle's %d", p.name, what, a, b)
	}
	return err
}

// read compares one read of the session with the oracle's, bit for bit.
func (p *churnPair) read(t *testing.T, which int) {
	t.Helper()
	before := DenseMaterializations()
	var a, b string
	switch which {
	case 0:
		a, b = fmt.Sprint(p.s.M()), fmt.Sprint(p.o.M())
	case 1:
		a, b = fmt.Sprint(bitsOf(p.s.Loads())), fmt.Sprint(bitsOf(p.o.Loads()))
	case 2:
		a, b = fmt.Sprint(p.s.Clusters()), fmt.Sprint(p.o.Clusters())
	case 3:
		d, l, ok := p.s.BlockLatency()
		od, ol, ook := p.o.BlockLatency()
		a, b = fmt.Sprint(tableBits(d), l, ok), fmt.Sprint(tableBits(od), ol, ook)
	case 4:
		a, b = fmt.Sprint(math.Float64bits(p.s.Cost())), fmt.Sprint(math.Float64bits(p.o.Cost()))
	default:
		a, b = fmt.Sprint(entries(p.s.Result())), fmt.Sprint(entries(p.o.Result()))
	}
	if p.block && !p.densified {
		if moved := DenseMaterializations() - before; moved != 0 {
			t.Fatalf("%s: read %d materialized %d dense matrices", p.name, which, moved)
		}
	}
	if a != b {
		t.Fatalf("%s: read %d gave\n%s\nits oracle\n%s", p.name, which, a, b)
	}
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func tableBits(t [][]float64) [][]uint64 {
	out := make([][]uint64, len(t))
	for i, row := range t {
		out[i] = bitsOf(row)
	}
	return out
}

// FuzzSessionChurn decodes bytes into a small clustered scenario and a
// sequence of up to 48 session calls: joins with no rows, with rows that
// match the metro table and with rows that break it; joins with a NaN,
// infinite or non-positive speed, a negative load, an out-of-range
// metro or rows of the wrong length; leaves in range, out of range and
// of the only server; load updates, valid or not; backbone latency
// updates; and reads. The sequence runs on a block session and on its
// WithDenseLatency twin,
// each beside an oracle twin that reads after every call, so bursts of
// pending edits are pinned against edits settled one at a time.
func FuzzSessionChurn(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 0, 4, 0, 4, 1, 8, 5, 0, 2, 8, 1, 1, 1, 8, 4, 6, 9, 8, 5})
	f.Add([]byte{5, 2, 7, 4, 2, 4, 0, 0, 1, 1, 2, 8, 3, 2, 50, 4, 1, 8, 5, 6, 3, 8, 4})
	f.Add([]byte{1, 0, 2, 4, 0, 5, 1, 0, 1, 4, 0, 4, 0, 8, 0, 8, 1})
	f.Add([]byte{2, 3, 4, 3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 3, 8, 6, 0, 6, 1, 8, 5})
	f.Add([]byte{7, 3, 9, 1, 2, 1, 3, 4, 4, 4, 5, 2, 8, 4, 0, 6, 12, 0, 2, 8, 3, 8, 2, 8, 1})
	f.Add([]byte{6, 2, 3, 3, 6, 7, 0, 1, 1, 0, 0, 8, 3, 4, 2, 7, 1, 1, 0, 8, 5, 3, 7, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k := 1+int(data[0])%8, 1+int(data[1])%4
		sc := NewScenario(m).WithClusters(k).WithLoads(LoadZipf, 50).WithSeed(int64(data[2]))
		bsys, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		dsys, err := sc.WithDenseLatency().Build()
		if err != nil {
			t.Fatal(err)
		}
		table, _, ok := bsys.NewSession().BlockLatency()
		if !ok {
			t.Fatal("clustered scenario is not block-backed")
		}
		pairs := []*churnPair{
			{name: "block", s: bsys.NewSession(), o: bsys.NewSession(), block: true},
			{name: "dense", s: dsys.NewSession(), o: dsys.NewSession()},
		}
		ctx := context.Background()
		for _, p := range pairs {
			for _, s := range []*Session{p.s, p.o} {
				if _, err := s.Reoptimize(ctx, WithSolver("proxy"), WithMaxIterations(4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ops := data[3:]
		for n := 0; n+1 < len(ops) && n < 96; n += 2 {
			op, arg := ops[n]%9, int(ops[n+1])
			for _, p := range pairs {
				churnOp(t, p, op, arg, k, table)
			}
			if op == 7 {
				// Mirror the update: join rows follow the current table.
				for _, row := range table {
					for h := range row {
						row[h] *= 1.25
					}
				}
			}
		}
		for _, p := range pairs {
			for which := 0; which < 6; which++ {
				p.read(t, which)
			}
		}
	})
}

// churnOp runs one decoded call on a pair. Join rows follow the pair's
// current labels, read from the oracle, which has settled anyway.
func churnOp(t *testing.T, p *churnPair, op byte, arg, k int, table [][]float64) {
	t.Helper()
	m := p.o.M()
	rows := func(g int, breakWith float64) (to, from []float64) {
		to, from = make([]float64, m), make([]float64, m)
		for j, h := range p.o.Clusters() {
			to[j], from[j] = table[g][h], table[h][g]
			if breakWith > 0 {
				to[j], from[j] = breakWith, breakWith
			}
		}
		return to, from
	}
	spec := ServerSpec{Speed: 2, Load: 10, Cluster: arg % k}
	switch op {
	case 0:
		p.call(t, "join without rows", true, func(s *Session) error { return s.AddServer(spec) })
	case 1:
		spec.LatencyTo, spec.LatencyFrom = rows(spec.Cluster, 0)
		p.call(t, "join with metro rows", true, func(s *Session) error { return s.AddServer(spec) })
	case 2:
		spec.LatencyTo, spec.LatencyFrom = rows(spec.Cluster, 1000+float64(arg))
		p.call(t, "join with foreign rows", false, func(s *Session) error { return s.AddServer(spec) })
	case 3:
		switch arg % 9 {
		case 0:
			spec.Speed = math.NaN()
		case 1:
			spec.Speed = math.Inf(1)
		case 2:
			spec.Speed = math.Inf(-1)
		case 3:
			spec.Speed = 0
		case 4:
			spec.Speed = -1
		case 5:
			spec.Load = -1
		case 6:
			spec.Cluster = k + arg%3
		case 7:
			spec.Cluster = -1
		default:
			spec.LatencyTo, spec.LatencyFrom = rows(spec.Cluster, 0)
			spec.LatencyTo = append(spec.LatencyTo, 1)
		}
		if p.call(t, fmt.Sprintf("invalid join %d", arg%9), true, func(s *Session) error { return s.AddServer(spec) }) == nil {
			t.Fatalf("%s: invalid join %d accepted", p.name, arg%9)
		}
	case 4:
		i := arg % m
		err := p.call(t, "leave", true, func(s *Session) error { return s.RemoveServer(i) })
		if (err != nil) != (m == 1) {
			t.Fatalf("%s: leave %d of %d returned %v", p.name, i, m, err)
		}
	case 5:
		i := m + arg%2
		if arg%3 == 0 {
			i = -1 - arg%2
		}
		if p.call(t, "leave out of range", true, func(s *Session) error { return s.RemoveServer(i) }) == nil {
			t.Fatalf("%s: leave %d of %d accepted", p.name, i, m)
		}
	case 6:
		loads := make([]float64, m)
		for i := range loads {
			loads[i] = float64((arg + 7*i) % 50)
		}
		switch arg % 7 {
		case 0:
			loads = append(loads, 1)
		case 1:
			loads[arg%m] = math.NaN()
		}
		p.call(t, "load update", true, func(s *Session) error { return s.UpdateLoads(loads) })
	case 7:
		if p.call(t, "latency update", true, func(s *Session) error { return s.ApplyLatencyUpdate(ScaleBackbone(1.25)) }) != nil {
			t.Fatalf("%s: backbone update rejected", p.name)
		}
	default:
		p.read(t, arg%6)
	}
}
