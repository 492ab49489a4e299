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
