package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bonsai"
	"bonsai/internal/netgen"
	"bonsai/internal/server"
)

// TestThinClientRejectsLocalOnlyFlags: against a daemon, the flags that
// only configure an in-process engine are errors, not silently dropped.
func TestThinClientRejectsLocalOnlyFlags(t *testing.T) {
	s := server.New(server.Config{MaxQueriesPerTenant: 4})
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Drain()
		hs.Close()
	})
	dir := t.TempDir()
	netFile, logFile := filepath.Join(dir, "net.txt"), filepath.Join(dir, "deltas.jsonl")
	f, err := os.Create(netFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := bonsai.Print(f, netgen.Fattree(4, netgen.PolicyShortestPath)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(logFile, []byte(`{"link_down":[{"a":"core-0","b":"agg-0-0"}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	remote := []string{"-server", hs.URL, "-tenant", "ft", "-f", netFile, "-json"}
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"compress -budget-mb", cmdCompress, []string{"-budget-mb", "4"}},
		{"replay -v", cmdReplay, []string{"-log", logFile, "-v"}},
	} {
		err := tc.run(append(tc.args, remote...))
		if err == nil || !strings.Contains(err.Error(), "local-only") {
			t.Errorf("%s against a daemon: err %v, want a local-only error", tc.name, err)
		}
	}
}

// TestReachLine: the terminal form of a reach answer names the verdict and
// reachable_some only for a class without a unique solution, an unbounded
// maximum where a loop is reachable, and each fault that holds.
func TestReachLine(t *testing.T) {
	for _, tc := range []struct {
		a    bonsai.ReachAnswer
		want string
	}{
		{bonsai.ReachAnswer{Reachable: true, MinHops: 2, MaxHops: 2}, "reachable=true min_hops=2 max_hops=2"},
		{bonsai.ReachAnswer{ReachableSome: true, Stable: "multiple", MinHops: 1, MaxHops: 1, BlackHole: true},
			"reachable=false stable=multiple reachable_some=true min_hops=1 max_hops=1 black_hole"},
		{bonsai.ReachAnswer{Reachable: true, MinHops: 1, Loop: true, MultipathInconsistent: true},
			"reachable=true min_hops=1 max_hops=unbounded loop multipath_inconsistent"},
		{bonsai.ReachAnswer{Stable: "none"}, "reachable=false stable=none reachable_some=false"},
	} {
		if got := reachLine(tc.a); got != tc.want {
			t.Errorf("reachLine(%+v) = %q, want %q", tc.a, got, tc.want)
		}
	}
}
