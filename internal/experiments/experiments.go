// Package experiments regenerates the paper's evaluation artifacts
// (Table 1, Figure 11, Figure 12, and the §8 Batfish query) from the
// network generators and the compression pipeline. cmd/bonsai-tables prints
// them as text tables; the repository-root benchmarks time the same
// experiments as testing.B harnesses (Figure 12 through this package).
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"time"

	"bonsai/internal/build"
	"bonsai/internal/config"
	"bonsai/internal/ec"
	"bonsai/internal/netgen"
	"bonsai/internal/verify"
)

// Table1Row is one row of Table 1: concrete size, average abstract size,
// compression ratios, destination classes, and timing split into BDD setup
// and per-class compression, mirroring the paper's columns.
type Table1Row struct {
	Name          string
	Nodes         int
	Links         int
	Ifaces        int
	Classes       int
	SampledECs    int
	AbsNodesAvg   float64
	AbsLinksAvg   float64
	NodeRatio     float64
	LinkRatio     float64
	BDDTime       time.Duration
	CompressPerEC time.Duration
}

func (r Table1Row) String() string {
	return fmt.Sprintf("%-14s %5d/%-6d -> %6.1f/%-7.1f  ratio %6.2fx/%-7.2fx  ECs %5d  bdd %8v  per-EC %8v",
		r.Name, r.Nodes, r.Links, r.AbsNodesAvg, r.AbsLinksAvg,
		r.NodeRatio, r.LinkRatio, r.Classes,
		r.BDDTime.Round(time.Millisecond), r.CompressPerEC.Round(time.Microsecond))
}

// CompressNetwork compresses up to sampleECs destination classes (0 = all,
// stride-sampled for coverage) and aggregates a Table1Row.
func CompressNetwork(name string, net *config.Network, sampleECs int) (Table1Row, error) {
	b, err := build.New(net)
	if err != nil {
		return Table1Row{}, err
	}
	classes := b.Classes()
	sample := strideSample(classes, sampleECs)

	bddStart := time.Now()
	comp := b.NewCompiler(true)
	// Warm the shared BDD tables on one class so per-EC times reflect the
	// amortised steady state, like the paper's separate "BDD time" column.
	// CompressFresh keeps the cross-EC dedup cache out of the row: Table 1
	// reports independent per-EC compression cost (the dedup speedup is
	// measured separately by BenchmarkTable1aFattree's dedup/independent pair).
	if len(sample) > 0 {
		if _, err := b.CompressFresh(context.Background(), comp, sample[0]); err != nil {
			return Table1Row{}, err
		}
	}
	bddTime := time.Since(bddStart)

	var sumNodes, sumLinks int
	start := time.Now()
	for _, cls := range sample {
		abs, err := b.CompressFresh(context.Background(), comp, cls)
		if err != nil {
			return Table1Row{}, err
		}
		sumNodes += abs.NumAbstractNodes()
		sumLinks += abs.NumAbstractEdges()
	}
	elapsed := time.Since(start)

	n := float64(len(sample))
	row := Table1Row{
		Name:          name,
		Nodes:         b.G.NumNodes(),
		Links:         b.G.NumLinks(),
		Ifaces:        net.NumInterfaces(),
		Classes:       len(classes),
		SampledECs:    len(sample),
		AbsNodesAvg:   float64(sumNodes) / n,
		AbsLinksAvg:   float64(sumLinks) / n,
		BDDTime:       bddTime,
		CompressPerEC: elapsed / time.Duration(len(sample)),
	}
	row.NodeRatio = float64(row.Nodes) / row.AbsNodesAvg
	row.LinkRatio = float64(row.Links) / row.AbsLinksAvg
	return row, nil
}

// Table1Synthetic regenerates Table 1(a). quick shrinks sizes for test and
// CI runs; the full sizes match the paper (fattree 180/500/1125 nodes, ring
// 100/500/1000, mesh 50/150/250).
func Table1Synthetic(quick bool) ([]Table1Row, error) {
	type entry struct {
		name   string
		net    *config.Network
		sample int
	}
	var entries []entry
	if quick {
		entries = []entry{
			{"fattree-45", netgen.Fattree(6, netgen.PolicyShortestPath), 6},
			{"fattree-80", netgen.Fattree(8, netgen.PolicyShortestPath), 6},
			{"ring-20", netgen.Ring(20), 6},
			{"ring-60", netgen.Ring(60), 6},
			{"mesh-10", netgen.FullMesh(10), 6},
			{"mesh-30", netgen.FullMesh(30), 6},
		}
	} else {
		entries = []entry{
			{"fattree-180", netgen.Fattree(12, netgen.PolicyShortestPath), 16},
			{"fattree-500", netgen.Fattree(20, netgen.PolicyShortestPath), 8},
			{"fattree-1125", netgen.Fattree(30, netgen.PolicyShortestPath), 4},
			{"ring-100", netgen.Ring(100), 8},
			{"ring-500", netgen.Ring(500), 4},
			{"ring-1000", netgen.Ring(1000), 2},
			{"mesh-50", netgen.FullMesh(50), 8},
			{"mesh-150", netgen.FullMesh(150), 4},
			{"mesh-250", netgen.FullMesh(250), 2},
		}
	}
	out := make([]Table1Row, 0, len(entries))
	for _, e := range entries {
		row, err := CompressNetwork(e.name, e.net, e.sample)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// RealNetworkRow extends Table1Row with the role statistics reported for
// the operational networks in §8.
type RealNetworkRow struct {
	Table1Row
	RolesFull      int // without unused-tag erasure (paper DC: 112)
	RolesErased    int // with erasure (paper DC: 26)
	RolesNoStatics int // erasure + ignoring statics (paper DC: 8)
}

// Table1Real regenerates Table 1(b) on the operational-network stand-ins.
func Table1Real(quick bool) ([]RealNetworkRow, error) {
	dcOpts, wanOpts := netgen.DCOptions{}, netgen.WANOptions{}
	sample := 12
	if quick {
		dcOpts = netgen.DCOptions{
			Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, Borders: 1,
			PrefixesPerLeaf: 2, VirtualIfaces: 3, StaticPatterns: 4, TagGroups: 5,
		}
		wanOpts = netgen.WANOptions{Backbone: 6, Sites: 6, SwitchesPerSite: 3}
		sample = 6
	}
	var out []RealNetworkRow
	for _, e := range []struct {
		name string
		net  *config.Network
	}{
		{"datacenter", netgen.Datacenter(dcOpts)},
		{"wan", netgen.WAN(wanOpts)},
	} {
		row, err := CompressNetwork(e.name, e.net, sample)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		b, err := build.New(e.net)
		if err != nil {
			return nil, err
		}
		out = append(out, RealNetworkRow{
			Table1Row:      row,
			RolesFull:      b.RoleCount(false, false),
			RolesErased:    b.RoleCount(true, false),
			RolesNoStatics: b.RoleCount(true, true),
		})
	}
	return out, nil
}

// Fig11Result compares the abstraction sizes of the two fattree policies.
type Fig11Result struct {
	K                 int
	ShortestPathNodes int
	ShortestPathLinks int
	PreferBottomNodes int
	PreferBottomLinks int
}

// Figure11 regenerates Figure 11: the same fattree under shortest-path vs
// middle-tier-prefers-bottom routing; the latter needs a larger abstraction
// to capture the extra forwarding behaviors.
func Figure11(k int) (Fig11Result, error) {
	res := Fig11Result{K: k}
	for i, pol := range []netgen.FattreePolicy{netgen.PolicyShortestPath, netgen.PolicyPreferBottom} {
		b, err := build.New(netgen.Fattree(k, pol))
		if err != nil {
			return res, err
		}
		comp := b.NewCompiler(true)
		abs, err := b.Compress(context.Background(), comp, b.Classes()[0])
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.ShortestPathNodes = abs.NumAbstractNodes()
			res.ShortestPathLinks = abs.NumAbstractEdges()
		} else {
			res.PreferBottomNodes = abs.NumAbstractNodes()
			res.PreferBottomLinks = abs.NumAbstractEdges()
		}
	}
	return res, nil
}

// Fig12Point is one x-position of a Figure 12 plot: total verification time
// for an all-pairs reachability query, with and without Bonsai.
type Fig12Point struct {
	Nodes    int
	Concrete time.Duration
	Bonsai   time.Duration
}

func (p Fig12Point) String() string {
	speedup := float64(p.Concrete) / float64(p.Bonsai)
	return fmt.Sprintf("n=%5d  concrete %10v  bonsai %10v  speedup %6.1fx",
		p.Nodes, p.Concrete.Round(time.Millisecond), p.Bonsai.Round(time.Millisecond), speedup)
}

// Figure12 sweeps one topology family over sizes and measures the
// per-query-certification verifier on the concrete and compressed networks.
// maxClasses bounds the per-size work so sweeps finish in bounded time
// (both modes see the same classes, preserving the comparison).
func Figure12(family string, sizes []int, maxClasses int) ([]Fig12Point, error) {
	var out []Fig12Point
	for _, size := range sizes {
		var net *config.Network
		switch family {
		case "fattree":
			net = netgen.Fattree(size, netgen.PolicyShortestPath)
		case "ring":
			net = netgen.Ring(size)
		case "mesh":
			net = netgen.FullMesh(size)
		default:
			return nil, fmt.Errorf("unknown family %q", family)
		}
		b, err := build.New(net)
		if err != nil {
			return nil, err
		}
		opts := verify.Options{MaxClasses: maxClasses, Workers: 1, PerPairCertification: true}
		conc, err := verify.AllPairsConcrete(context.Background(), b, opts)
		if err != nil {
			return nil, err
		}
		bon, err := verify.AllPairsBonsai(context.Background(), b, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig12Point{Nodes: b.G.NumNodes(), Concrete: conc.Total, Bonsai: bon.Total})
	}
	return out, nil
}

// BatfishQueryResult is the §8 single-query experiment: one reachability
// query on the datacenter, with and without compression.
type BatfishQueryResult struct {
	Src, Dest        string
	Reachable        bool
	Concrete, Bonsai time.Duration
}

// BatfishQuery runs a single port-to-port reachability query on the
// datacenter stand-in both ways.
func BatfishQuery(quick bool) (BatfishQueryResult, error) {
	opts := netgen.DCOptions{}
	if quick {
		opts = netgen.DCOptions{
			Clusters: 3, SpinesPerClus: 2, LeavesPerClus: 4, Cores: 2, Borders: 1,
			PrefixesPerLeaf: 2, VirtualIfaces: 3, StaticPatterns: 4, TagGroups: 5,
		}
	}
	net := netgen.Datacenter(opts)
	b, err := build.New(net)
	if err != nil {
		return BatfishQueryResult{}, err
	}
	res := BatfishQueryResult{Src: "leaf-1-00"}
	res.Dest = net.Routers["leaf-0-00"].Originate[0].String()
	ok, dur, err := verify.Reach(context.Background(), b, nil, res.Src, res.Dest, false)
	if err != nil {
		return res, err
	}
	res.Reachable = ok
	res.Concrete = dur
	ok2, dur2, err := verify.Reach(context.Background(), b, nil, res.Src, res.Dest, true)
	if err != nil {
		return res, err
	}
	if ok2 != ok {
		return res, fmt.Errorf("batfish query: answers diverge: concrete=%v bonsai=%v", ok, ok2)
	}
	res.Bonsai = dur2
	return res, nil
}

func strideSample(classes []ec.Class, n int) []ec.Class {
	if n <= 0 || n >= len(classes) {
		return classes
	}
	out := make([]ec.Class, 0, n)
	stride := len(classes) / n
	for i := 0; i < n; i++ {
		out = append(out, classes[i*stride])
	}
	return out
}
