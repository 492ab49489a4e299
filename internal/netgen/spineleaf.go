package netgen

import (
	"fmt"

	"bonsai/internal/config"
	"bonsai/internal/policy"
)

// SpineLeafOptions sizes the spine-leaf fabric with external BGP peers at
// the leaves. The shape is deliberately different from the fat-tree: two
// switching tiers only, full bipartite spine<->leaf wiring, and the
// destination classes originate *outside* the fabric on degree-one external
// peer routers — the enterprise-edge pattern (each leaf terminates a few
// customer or server-farm eBGP sessions) rather than the datacenter-core
// one. Every external exports only its own prefixes, so externals never
// provide transit, while the fabric itself is open.
//
// Node count is Spines + Leaves·(1 + ExtPerLeaf); class count is
// Leaves·ExtPerLeaf·PrefixesPerExt. The scenario exercises both reuse
// levels of the streaming pipeline at once: prefixes of one external are
// identity-shared (equal fingerprints — one leader, followers from the
// cache) and distinct externals are related by symmetry transport.
type SpineLeafOptions struct {
	Spines         int // spine tier width (default 4)
	Leaves         int // leaf tier width (default 8)
	ExtPerLeaf     int // external eBGP peers per leaf (default 2)
	PrefixesPerExt int // originated prefixes per external (default 2)
	// PreferExternal installs a local-preference import policy on the
	// leaves favoring externally learned routes, the classic
	// customer-over-peer rule; it makes the class preference-diverse
	// (adoption's single-preference test refuses it, and BGP case splitting
	// engages).
	PreferExternal bool
}

func (o *SpineLeafOptions) defaults() {
	if o.Spines == 0 {
		o.Spines = 4
	}
	if o.Leaves == 0 {
		o.Leaves = 8
	}
	if o.ExtPerLeaf == 0 {
		o.ExtPerLeaf = 2
	}
	if o.PrefixesPerExt == 0 {
		o.PrefixesPerExt = 2
	}
}

// SpineLeaf generates the spine-leaf fabric with external peers.
func SpineLeaf(opts SpineLeafOptions) *config.Network {
	opts.defaults()
	if opts.Spines < 1 || opts.Leaves < 2 {
		panic("netgen: spine-leaf needs >= 1 spine and >= 2 leaves")
	}
	n := config.New(fmt.Sprintf("spineleaf-%d-%d-%d", opts.Spines, opts.Leaves, opts.ExtPerLeaf))
	var alloc prefixAlloc
	asn := 64512
	nextASN := func() int { asn++; return asn }

	spines := make([]string, opts.Spines)
	for s := range spines {
		spines[s] = fmt.Sprintf("spine-%d", s)
		n.AddRouter(spines[s]).EnsureBGP(nextASN())
	}
	for l := 0; l < opts.Leaves; l++ {
		leaf := fmt.Sprintf("leaf-%d", l)
		lr := n.AddRouter(leaf)
		lr.EnsureBGP(nextASN())
		for _, s := range spines {
			n.AddLink(leaf, s)
			peer(n, leaf, s)
		}
		for x := 0; x < opts.ExtPerLeaf; x++ {
			ext := fmt.Sprintf("ext-%d-%d", l, x)
			xr := n.AddRouter(ext)
			xr.EnsureBGP(nextASN())
			for p := 0; p < opts.PrefixesPerExt; p++ {
				xr.Originate = append(xr.Originate, alloc.alloc())
			}
			n.AddLink(leaf, ext)
			peer(n, leaf, ext)
			originateOnlyOwn(xr)
			if opts.PreferExternal {
				lr.Env.RouteMaps["PREF-EXT"] = &policy.RouteMap{Name: "PREF-EXT", Clauses: []policy.Clause{
					{Seq: 10, Action: policy.Permit, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 200}}},
				}}
				lr.BGP.Neighbors[ext].ImportMap = "PREF-EXT"
			}
		}
	}
	return n
}
