package config_test

import (
	"slices"
	"strings"
	"testing"

	"bonsai/internal/config"
	"bonsai/internal/netgen"
)

// TestParseRepeatedLinkLines pins what the parser's link index must keep of
// AddLinkN and FindLink, which it replaced on the parse path: the first line
// of an unordered pair is the link (its orientation, its multiplicity), and
// "down" on any later line of the pair marks that first link.
func TestParseRepeatedLinkLines(t *testing.T) {
	const text = `
router a
router b
router c
link a b x2
link b a x7
link b c
link c a down
link c b x3 down
link a c x5
link a a
link a b
`
	got, err := config.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	// The same lines through the scanning functions hand-built networks use.
	ref := config.New("")
	for _, l := range []struct {
		a, b  string
		count int
		down  bool
	}{
		{"a", "b", 2, false}, {"b", "a", 7, false}, {"b", "c", 1, false}, {"c", "a", 1, true},
		{"c", "b", 3, true}, {"a", "c", 5, false}, {"a", "a", 1, false}, {"a", "b", 1, false},
	} {
		ref.AddLinkN(l.a, l.b, l.count)
		if l.down {
			ref.Links[ref.FindLink(l.a, l.b)].Down = true
		}
	}
	want := []config.Link{
		{A: "a", B: "b", Count: 2},
		{A: "b", B: "c", Count: 1, Down: true},
		{A: "c", B: "a", Count: 1, Down: true},
		{A: "a", B: "a", Count: 1},
	}
	if !slices.Equal(ref.Links, want) {
		t.Fatalf("reference links = %+v, want %+v", ref.Links, want)
	}
	if !slices.Equal(got.Links, want) {
		t.Fatalf("parsed links = %+v, want %+v", got.Links, want)
	}
}

// benchNetworks are the four networks the repository benchmark parses
// (bench/spec.go).
var benchNetworks = []struct {
	name string
	net  func() *config.Network
}{
	{"fattree-20", func() *config.Network { return netgen.Fattree(20, netgen.PolicyShortestPath) }},
	{"datacenter", func() *config.Network { return netgen.Datacenter(netgen.DCOptions{}) }},
	{"wan-30-80-7", func() *config.Network {
		return netgen.WAN(netgen.WANOptions{Backbone: 30, Sites: 80, SwitchesPerSite: 7})
	}},
	{"fattree-12", func() *config.Network { return netgen.Fattree(12, netgen.PolicyShortestPath) }},
}

func TestParsePrintRoundTripBenchNetworks(t *testing.T) {
	for _, tc := range benchNetworks {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net()
			text := config.PrintString(net)
			got, err := config.ParseString(text)
			if err != nil {
				t.Fatal(err)
			}
			// Print writes links sorted by (A, B); nothing else about them
			// may change on the way through.
			want := slices.Clone(net.Links)
			slices.SortFunc(want, func(x, y config.Link) int {
				if c := strings.Compare(x.A, y.A); c != 0 {
					return c
				}
				return strings.Compare(x.B, y.B)
			})
			if !slices.Equal(got.Links, want) {
				t.Fatalf("%d links parsed, %d printed, or they differ", len(got.Links), len(want))
			}
			if len(got.Routers) != len(net.Routers) {
				t.Fatalf("%d routers parsed, %d printed", len(got.Routers), len(net.Routers))
			}
			if again := config.PrintString(got); again != text {
				t.Fatal("Print(Parse(Print(net))) differs from Print(net)")
			}
		})
	}
}

var parseSink *config.Network

// BenchmarkParseFattree20 parses cold-fattree's input, 500 routers and 4 000
// links: the size at which a per-line scan of Links was a fifth of a verdict.
func BenchmarkParseFattree20(b *testing.B) {
	text := config.PrintString(netgen.Fattree(20, netgen.PolicyShortestPath))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		net, err := config.ParseString(text)
		if err != nil {
			b.Fatal(err)
		}
		parseSink = net
	}
}

// FuzzParse: the parser never panics, and what it accepts prints to text
// that parses back to the same print. The seeds (testdata/fuzz: a three-router
// network and two single routers that between them use every directive) are
// small on purpose: the fuzzer minimises every interesting input it keeps,
// and with a whole generated network as a seed it spends the run doing that.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		net, err := config.ParseString(text)
		if err != nil {
			return
		}
		printed := config.PrintString(net)
		again, err := config.ParseString(printed)
		if err != nil {
			t.Fatalf("the print of an accepted network does not parse: %v\n%s", err, printed)
		}
		if reprinted := config.PrintString(again); reprinted != printed {
			t.Fatalf("print -> parse -> print is not a fixed point:\n%s\n--- became ---\n%s", printed, reprinted)
		}
	})
}
