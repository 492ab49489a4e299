package oracle

import (
	"testing"

	"bonsai/internal/core"
	"bonsai/internal/protocols"
	"bonsai/internal/srp"
	"bonsai/internal/topo"
)

// ripPair builds a concrete 4-node diamond and its correct 3-node
// abstraction under RIP, returning solved instances.
func ripPair(t *testing.T) (*srp.Instance, *srp.Solution, *srp.Instance, *srp.Solution, *core.Abstraction) {
	t.Helper()
	g := topo.New()
	a, b1, b2, d := g.AddNode("a"), g.AddNode("b1"), g.AddNode("b2"), g.AddNode("d")
	g.AddLink(a, b1)
	g.AddLink(a, b2)
	g.AddLink(b1, d)
	g.AddLink(b2, d)
	key := func(u, v topo.NodeID) core.EdgeKey { return core.EdgeKey{Static: true, ACLPermit: true} }
	abs := core.FindAbstraction(g, d, core.Options{Mode: core.ModeEffective, EdgeKey: key})
	conc := &srp.Instance{G: g, Dest: d, P: &protocols.RIP{}}
	abst := &srp.Instance{G: abs.AbsG, Dest: abs.AbsDest, P: &protocols.RIP{}}
	cs, err := srp.Solve(conc)
	if err != nil {
		t.Fatal(err)
	}
	as, err := srp.Solve(abst)
	if err != nil {
		t.Fatal(err)
	}
	return conc, cs, abst, as, abs
}

func TestCheckAcceptsCorrectAbstraction(t *testing.T) {
	conc, cs, abst, as, abs := ripPair(t)
	if err := Check(conc, cs, abst, as, abs); err != nil {
		t.Fatal(err)
	}
	if err := CheckAcrossSolutions(conc, abst, abs); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsWrongLabel(t *testing.T) {
	conc, cs, abst, as, abs := ripPair(t)
	// Corrupt the abstract middle label: hop count 5 instead of 1.
	bad := &srp.Solution{Label: append([]srp.Attr(nil), as.Label...), Fwd: as.Fwd}
	mid, _ := abs.AbsG.Lookup("~b1")
	bad.Label[mid] = 5
	if Check(conc, cs, abst, bad, abs) == nil {
		t.Fatal("corrupted label accepted")
	}
}

func TestCheckDetectsWrongForwarding(t *testing.T) {
	conc, cs, abst, as, abs := ripPair(t)
	bad := &srp.Solution{Label: as.Label, Fwd: append([][]topo.NodeID(nil), as.Fwd...)}
	mid, _ := abs.AbsG.Lookup("~b1")
	aTop, _ := abs.AbsG.Lookup("~a")
	bad.Fwd[mid] = []topo.NodeID{aTop} // middle forwarding up instead of down
	if Check(conc, cs, abst, bad, abs) == nil {
		t.Fatal("corrupted forwarding accepted")
	}
}

func TestCheckDetectsMissingRoute(t *testing.T) {
	conc, cs, abst, as, abs := ripPair(t)
	bad := &srp.Solution{Label: append([]srp.Attr(nil), as.Label...), Fwd: append([][]topo.NodeID(nil), as.Fwd...)}
	top, _ := abs.AbsG.Lookup("~a")
	bad.Label[top] = nil
	bad.Fwd[top] = nil
	if Check(conc, cs, abst, bad, abs) == nil {
		t.Fatal("missing abstract route accepted")
	}
	_ = as
}
