package bonsai

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"bonsai/internal/netgen"
	"bonsai/internal/topo"
	"bonsai/internal/verify"
)

// TestFingerprintGroupsShareOneAnswer checks the assumption Verify's one
// solve per fingerprint group rests on: every class's compressed reach set
// equals its group leader's and its own concrete one, on a cold snapshot and
// again on the snapshot an Apply of one link-down leaves. WAN{10,20,3} has
// no two classes with one fingerprint, so only its concrete comparison
// bites; SpineLeaf shares fingerprints among one external's prefixes.
func TestFingerprintGroupsShareOneAnswer(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"datacenter", netgen.Datacenter(netgen.DCOptions{})},
		{"wan", netgen.WAN(netgen.WANOptions{Backbone: 10, Sites: 20, SwitchesPerSite: 3})},
		{"spineleaf", netgen.SpineLeaf(netgen.SpineLeafOptions{PrefixesPerExt: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			down := LinkRef{A: tc.net.Links[0].A, B: tc.net.Links[0].B}
			eng, err := Open(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			check := func(when string) {
				b := eng.state.Load().b
				classes := b.Classes()
				abs := make([]verify.ClassAnswer, len(classes))
				conc := make([]verify.ClassAnswer, len(classes))
				// The concrete solves dominate (seconds on the datacenter),
				// so the classes are spread over one goroutine per P.
				workers := runtime.GOMAXPROCS(0)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := range workers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						comp := b.NewCompiler(true)
						for i := w; i < len(classes) && errs[w] == nil; i += workers {
							abs[i], errs[w] = verify.ClassReach(ctx, b, comp, classes[i], true)
							if errs[w] == nil {
								conc[i], errs[w] = verify.ClassReach(ctx, b, nil, classes[i], false)
							}
						}
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				key := verify.FingerprintKey(b)
				leader := make(map[string]int)
				for i, cls := range classes {
					if !sameClassAnswer(abs[i], conc[i], b.G.NumNodes()) {
						t.Fatalf("%s: class %v: compressed reach set differs from the concrete one", when, cls.Prefix)
					}
					k := key(cls)
					if k == "" {
						continue
					}
					if l, ok := leader[k]; !ok {
						leader[k] = i
					} else if !sameClassAnswer(abs[i], abs[l], b.G.NumNodes()) {
						t.Fatalf("%s: class %v: reach set differs from its group leader %v's", when, cls.Prefix, classes[l].Prefix)
					}
				}
				t.Logf("%s: %d classes, %d fingerprint groups", when, len(classes), len(leader))
			}
			check("cold")
			if _, err := eng.Apply(ctx, Delta{LinkDown: []LinkRef{down}}); err != nil {
				t.Fatal(err)
			}
			check("after link-down " + down.A + "-" + down.B)
		})
	}
}

// sameClassAnswer compares two class answers: the facts of each of the n
// routers and the verdict.
func sameClassAnswer(a, b verify.ClassAnswer, n int) bool {
	for u := range n {
		if a.Router(topo.NodeID(u)) != b.Router(topo.NodeID(u)) {
			return false
		}
	}
	return a.Stable == b.Stable
}
