package bonsai

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// roundTrip encodes v, decodes into a fresh value of v's dynamic type, and
// compares — the JSON wire contract bonsaid and its clients rely on.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	ptr := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(b, ptr.Interface()); err != nil {
		t.Fatalf("unmarshal %T: %v\n%s", v, err, b)
	}
	if got := ptr.Elem().Interface(); !reflect.DeepEqual(v, got) {
		t.Fatalf("%T round-trip mismatch:\n sent %+v\n got  %+v\n wire %s", v, v, got, b)
	}
}

func mustPrefix(t *testing.T, s string) Prefix {
	t.Helper()
	p, err := ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDeltaRoundTrip(t *testing.T) {
	d := Delta{
		LinkDown: []LinkRef{{A: "core-1", B: "agg-2"}},
		LinkUp:   []LinkRef{{A: "agg-2", B: "edge-3"}},
		SetRouteMaps: []RouteMapEdit{
			{
				Router: "edge-1",
				Name:   "rm-in",
				Map: &RouteMap{
					Name: "rm-in",
					Clauses: []Clause{
						{
							Seq:    10,
							Action: Permit,
							Matches: []Match{
								{Kind: MatchPrefix, Arg: "pl-cust"},
								{Kind: MatchCommunity, Arg: "cl-peers"},
							},
							Sets: []Set{
								{Kind: SetLocalPref, Value: 200},
								{Kind: SetAddCommunity, Comm: 65001<<16 | 42},
							},
						},
						{Seq: 20, Action: Deny},
					},
				},
			},
			{Router: "edge-2", Name: "rm-gone"}, // nil Map = delete
		},
		SetPrefixLists: []PrefixListEdit{
			{
				Router: "edge-1",
				Name:   "pl-cust",
				List: &PrefixList{
					Name: "pl-cust",
					Entries: []PrefixEntry{
						{Action: Permit, Prefix: mustPrefix(t, "10.0.0.0/8"), Ge: 16, Le: 24},
						{Action: Deny, Prefix: mustPrefix(t, "0.0.0.0/0")},
					},
				},
			},
		},
		AddOriginated:    []OriginEdit{{Router: "edge-1", Prefix: "10.9.0.0/24"}},
		RemoveOriginated: []OriginEdit{{Router: "edge-2", Prefix: "10.8.0.0/24"}},
	}
	roundTrip(t, d)

	// The wire names must be stable snake_case, not Go field names.
	b, _ := json.Marshal(d)
	for _, want := range []string{
		`"link_down"`, `"set_route_maps"`, `"clauses"`, `"matches"`,
		`"sets"`, `"entries"`, `"add_originated"`, `"prefix"`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("delta wire missing %s:\n%s", want, b)
		}
	}
	if strings.Contains(string(b), `"Clauses"`) || strings.Contains(string(b), `"Entries"`) {
		t.Errorf("delta wire leaks Go field names:\n%s", b)
	}
}

// TestReportsRoundTrip round-trips every wire type, and pins the keys of
// the seven reports the daemon serves against testdata/wire_reports.golden:
// a round trip cannot see a renamed or dropped key. Every exported leaf is
// non-zero, so omitempty keys show too.
func TestReportsRoundTrip(t *testing.T) {
	cache := CacheStats{
		StoreStats: StoreStats{
			Fresh: 2, Transported: 4, Served: 10, Adopted: 3, Misses: 6,
			Evictions: 1, LiveBytes: 1 << 20, PeakBytes: 2 << 20, BudgetBytes: 4 << 20,
			DuplicateFresh: 1,
		},
		ReachMemoHits: 7, ReachMemoMisses: 5,
	}
	reports := []struct {
		name string
		v    any
	}{
		{"CacheStats", cache},
		{"CompressReport", CompressReport{
			CompressAnswer: CompressAnswer{
				Network:           NetworkInfo{Name: "ft4", Routers: 20, Links: 32, Interfaces: 80, Classes: 16},
				ClassesCompressed: 16, SumAbstractNodes: 64, SumAbstractLinks: 96,
				NodeRatio: 5.0, LinkRatio: 5.3,
			},
			Cache:    cache,
			BDDSetup: time.Millisecond, Duration: time.Second,
		}},
		{"Report", Report{
			VerifyAnswer: VerifyAnswer{
				Mode: "bonsai", Classes: 16, Pairs: 320, ReachablePairs: 300, AbstractNodeSum: 64,
				Stable: "multiple",
			},
			CompressTime: time.Second, Total: 2 * time.Second,
			Cache: cache,
		}},
		{"ApplyReport", ApplyReport{
			Classes: 32,
			AdoptStats: AdoptStats{
				Adopted: 20, Unchanged: 15, Reassembled: 5,
				Invalidated: 7, InvalidatedPrefixes: []string{"10.0.1.0/24"},
				NewClasses: 2, RemovedClasses: 1,
			},
			Degraded: true, Coalesced: 3,
			Duration: 12 * time.Millisecond,
		}},
		{"ApplyStreamReport", ApplyStreamReport{
			Deltas: 10, Rejected: 1, Batches: 4, EmptyBatches: 1,
			EditsReceived: 20, EditsApplied: 8, Coalesced: 12, CoalesceRatio: 2.5,
			Adopted: 30, Invalidated: 4, NewClasses: 1, RemovedClasses: 1,
			DegradedBatches: 1, MaxPending: 6, FlushDrain: 2, FlushPending: 1,
			FlushStale: 1, FlushClose: 1, Duration: time.Second,
		}},
		{"ReachResult", ReachResult{
			ReachAnswer: ReachAnswer{
				Reachable: true, ReachableSome: true, Stable: "multiple",
				MinHops: 2, MaxHops: 4, Loop: true, BlackHole: true, MultipathInconsistent: true,
			},
			Compressed: true, Duration: time.Millisecond,
		}},
		{"RoutesReport", RoutesReport{
			Dest: "10.0.0.0/24",
			Routes: []RouteEntry{
				{Router: "edge-1", Label: "bgp(lp=100)", NextHops: []string{"agg-1", "agg-2"}},
				{Router: "agg-1", Label: "<nil>", NextHops: []string{"core-1"}},
			},
			Stable: "multiple",
		}},
	}
	var wire bytes.Buffer
	for _, r := range reports {
		roundTrip(t, r.v)
		b, err := json.MarshalIndent(r.v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&wire, "%s\n%s\n", r.name, b)
	}
	if golden, err := os.ReadFile("testdata/wire_reports.golden"); err != nil || string(golden) != wire.String() {
		t.Fatalf("report wire differs from testdata/wire_reports.golden (err %v); got:\n%s", err, wire.String())
	}
	roundTrip(t, RolesReport{Roles: 4, Routers: 20})
	roundTrip(t, ClassResult{
		ClassAnswer: ClassAnswer{Prefix: "10.0.0.0/24", AbstractNodes: 4, AbstractLinks: 6},
		Source:      "fresh", Duration: time.Millisecond,
	})
	roundTrip(t, ApplyStats{Pending: 2, Received: 10, Rejected: 1, Batches: 3, MaxPending: 5})
	roundTrip(t, ClassSelector{Prefix: "10.0.0.0/24", MaxClasses: 8})
	roundTrip(t, VerifyRequest{Concrete: true, PerPair: true, MaxClasses: 4})
	roundTrip(t, RolesRequest{NoErase: true, NoStatics: true})
	roundTrip(t, VersionInfo{
		Module: "bonsai", Version: "(devel)", GoVersion: "go1.24",
		Revision: "abc123", Time: "2024-01-01T00:00:00Z", Dirty: true,
	})
}

// TestDeltaWireFixture pins the exact wire form of a representative delta:
// a change here is a wire-format break for every stored JSONL replay log.
func TestDeltaWireFixture(t *testing.T) {
	wire := `{"link_down":[{"a":"x","b":"y"}],"set_prefix_lists":[{"router":"r1","name":"pl","list":{"entries":[{"action":1,"prefix":"10.0.0.0/8","ge":16}]}}]}`
	var d Delta
	if err := json.Unmarshal([]byte(wire), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.LinkDown) != 1 || d.LinkDown[0].A != "x" {
		t.Fatalf("link_down: %+v", d)
	}
	l := d.SetPrefixLists[0].List
	if l == nil || len(l.Entries) != 1 || l.Entries[0].Action != Deny ||
		l.Entries[0].Prefix.String() != "10.0.0.0/8" || l.Entries[0].Ge != 16 {
		t.Fatalf("prefix list: %+v", l)
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != wire {
		t.Fatalf("re-encode changed the wire:\n want %s\n got  %s", wire, b)
	}
}
