// Command bonsai is the command-line front end to the control-plane
// compression library: generate evaluation networks, compress them,
// simulate the control plane, count router roles, and answer reachability
// queries with or without compression. Every subcommand except gen is a
// thin client of the public bonsai package — the same engine a library
// consumer embeds.
//
//	bonsai gen -topo fattree -k 8 > net.txt
//	bonsai compress -f net.txt [-json]
//	bonsai compress -f net.txt -dest 10.0.0.0/24 -write-abstract
//	bonsai simulate -f net.txt -dest 10.0.0.0/24
//	bonsai verify -f net.txt -src edge-1-1 -dest 10.0.0.0/24 -bonsai
//	bonsai verify -f net.txt -all-pairs -json
//	bonsai roles -f net.txt
//	bonsai replay -f net.txt -log deltas.jsonl -pending 32 -v
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bonsai"
	"bonsai/internal/netgen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "-version", "version":
		fmt.Println(bonsai.Version())
		return
	case "gen":
		err = cmdGen(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "roles":
		err = cmdRoles(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bonsai:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bonsai <gen|compress|simulate|verify|roles|replay|version> [flags]
  gen       -topo fattree|ring|mesh|dc|wan|spineleaf [-k N] [-n N] [-policy shortest|prefer-bottom]
            [-spines N] [-leaves N] [-ext N]
  compress  -f FILE [-dest PREFIX] [-write-abstract] [-max N] [-rows] [-budget-mb N] [-json]
  simulate  -f FILE -dest PREFIX [-json]
  verify    -f FILE [-src ROUTER -dest PREFIX] [-all-pairs] [-bonsai] [-per-pair] [-json]
  roles     -f FILE [-no-erase] [-no-statics] [-json]
  replay    -f FILE -log DELTAS.jsonl [-pending N] [-staleness DUR] [-resume-from N] [-cold] [-v] [-json]
  version   print build metadata

Engine subcommands also accept -server URL -tenant NAME to run as a thin
client of a bonsaid daemon (with -f, the tenant is opened from the file
first; an already-open tenant is reused). -write-abstract, -budget-mb and
replay's -v are local-only.`)
	os.Exit(2)
}

// engineFlags holds the flags shared by every engine-backed subcommand.
// With -server, the subcommand runs as a thin client of a bonsaid daemon
// instead of opening an in-process engine.
type engineFlags struct {
	file    *string
	jsonOut *bool
	server  *string
	tenant  *string
}

// addEngineFlags registers the shared flags on fs.
func addEngineFlags(fs *flag.FlagSet) engineFlags {
	return engineFlags{
		file:    fs.String("f", "", "network file"),
		jsonOut: fs.Bool("json", false, "emit the structured result as JSON"),
		server:  fs.String("server", "", "bonsaid base URL (thin-client mode, e.g. http://127.0.0.1:7171)"),
		tenant:  fs.String("tenant", "", "tenant name on the daemon (required with -server)"),
	}
}

// open parses the shared flags' network file into an Engine.
func (ef engineFlags) open(opts ...bonsai.Option) (*bonsai.Engine, error) {
	if *ef.file == "" {
		return nil, fmt.Errorf("-f required")
	}
	return bonsai.OpenFile(*ef.file, opts...)
}

// emit prints v as indented JSON when -json was given and returns true.
func (ef engineFlags) emit(v any) (bool, error) {
	if !*ef.jsonOut {
		return false, nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return true, enc.Encode(v)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	topoName := fs.String("topo", "fattree", "fattree|ring|mesh|dc|wan|spineleaf")
	k := fs.Int("k", 8, "fat-tree arity")
	n := fs.Int("n", 50, "ring/mesh size")
	pol := fs.String("policy", "shortest", "fattree policy: shortest|prefer-bottom")
	spines := fs.Int("spines", 0, "spine-leaf: spine count (0 = default)")
	leaves := fs.Int("leaves", 0, "spine-leaf: leaf count (0 = default)")
	ext := fs.Int("ext", 0, "spine-leaf: external peers per leaf (0 = default)")
	fs.Parse(args)

	var net *bonsai.Network
	switch *topoName {
	case "fattree":
		p := netgen.PolicyShortestPath
		if *pol == "prefer-bottom" {
			p = netgen.PolicyPreferBottom
		}
		net = netgen.Fattree(*k, p)
	case "ring":
		net = netgen.Ring(*n)
	case "mesh":
		net = netgen.FullMesh(*n)
	case "dc":
		net = netgen.Datacenter(netgen.DCOptions{})
	case "wan":
		net = netgen.WAN(netgen.WANOptions{})
	case "spineleaf":
		net = netgen.SpineLeaf(netgen.SpineLeafOptions{Spines: *spines, Leaves: *leaves, ExtPerLeaf: *ext})
	default:
		return fmt.Errorf("unknown topology %q", *topoName)
	}
	return bonsai.Print(os.Stdout, net)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	ef := addEngineFlags(fs)
	dest := fs.String("dest", "", "compress only this destination prefix")
	writeAbstract := fs.Bool("write-abstract", false, "print the compressed configuration (requires -dest)")
	maxClasses := fs.Int("max", 0, "max destination classes (0 = all)")
	rows := fs.Bool("rows", true, "stream one row per class as it completes (text output)")
	budgetMB := fs.Int64("budget-mb", 0, "abstraction store memory budget in MiB (0 = unbounded)")
	fs.Parse(args)
	ctx := context.Background()
	if c, tenant, ok, err := ef.remote(ctx); err != nil {
		return err
	} else if ok {
		if *writeAbstract {
			return fmt.Errorf("compress: -write-abstract is local-only")
		}
		if *budgetMB != 0 {
			return fmt.Errorf("compress: -budget-mb is local-only")
		}
		sel := bonsai.ClassSelector{Prefix: *dest, MaxClasses: *maxClasses}
		return remoteCompress(ctx, ef, c, tenant, sel, *rows && !*ef.jsonOut)
	}
	var opts []bonsai.Option
	if *budgetMB > 0 {
		opts = append(opts, bonsai.WithMemoryBudget(*budgetMB<<20))
	}
	eng, err := ef.open(opts...)
	if err != nil {
		return err
	}
	defer eng.Close()

	if *writeAbstract {
		if *dest == "" {
			return fmt.Errorf("compress: -write-abstract requires -dest")
		}
		absCfg, err := eng.AbstractNetwork(ctx, *dest)
		if err != nil {
			return err
		}
		return bonsai.Print(os.Stdout, absCfg)
	}

	// The report streams: rows print as classes complete, so a large
	// network shows progress immediately and the process never buffers the
	// per-class results (-json emits only the aggregate report, which is
	// O(1) regardless of class count).
	s, err := eng.CompressStream(ctx, bonsai.ClassSelector{Prefix: *dest, MaxClasses: *maxClasses})
	if err != nil {
		return err
	}
	printRows := *rows && !*ef.jsonOut
	for r := range s.Results() {
		if printRows {
			printCompressRow(r)
		}
	}
	if err := s.Err(); err != nil {
		return err
	}
	rep := s.Report()
	if done, err := ef.emit(rep); done {
		return err
	}
	printCompressSummary(rep)
	fmt.Printf("dedup: %d compressed fresh, %d transported by symmetry, %d served from cache (of %d classes)\n",
		rep.Cache.Fresh, rep.Cache.Transported, rep.Cache.Served, rep.ClassesCompressed)
	if rep.Cache.BudgetBytes > 0 {
		fmt.Printf("store: %.1f MiB live (peak %.1f MiB, budget %.1f MiB), %d evictions\n",
			float64(rep.Cache.LiveBytes)/(1<<20), float64(rep.Cache.PeakBytes)/(1<<20),
			float64(rep.Cache.BudgetBytes)/(1<<20), rep.Cache.Evictions)
	}
	fmt.Printf("time: bdd setup %v, compression %v total (%v per class)\n",
		rep.BDDSetup.Round(time.Millisecond), rep.Duration.Round(time.Millisecond),
		(rep.Duration / time.Duration(max(rep.ClassesCompressed, 1))).Round(time.Microsecond))
	return nil
}

// printCompressRow and printCompressSummary render compress's text output
// for the local and thin-client paths: a class's row and the report's head.
func printCompressRow(r bonsai.ClassResult) {
	fmt.Printf("%-18s %3d nodes %3d links  %-11s %v\n",
		r.Prefix, r.AbstractNodes, r.AbstractLinks, r.Source,
		r.Duration.Round(time.Microsecond))
}

func printCompressSummary(rep *bonsai.CompressReport) {
	fmt.Printf("network: %d nodes, %d links, %d interfaces, %d classes (compressed %d)\n",
		rep.Network.Routers, rep.Network.Links, rep.Network.Interfaces,
		rep.Network.Classes, rep.ClassesCompressed)
	fmt.Printf("abstract: avg %.1f nodes / %.1f links (%.2fx / %.2fx)\n",
		rep.AvgAbstractNodes(), rep.AvgAbstractLinks(), rep.NodeRatio, rep.LinkRatio)
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	ef := addEngineFlags(fs)
	dest := fs.String("dest", "", "destination prefix")
	fs.Parse(args)
	if *dest == "" {
		return fmt.Errorf("simulate: -f and -dest required")
	}
	ctx := context.Background()
	var rep *bonsai.RoutesReport
	if c, tenant, ok, err := ef.remote(ctx); err != nil {
		return err
	} else if ok {
		rep, err = c.Routes(ctx, tenant, *dest)
		if err != nil {
			return err
		}
	} else {
		eng, err := ef.open()
		if err != nil {
			return err
		}
		defer eng.Close()
		rep, err = eng.Routes(ctx, *dest)
		if err != nil {
			return err
		}
	}
	if done, err := ef.emit(rep); done {
		return err
	}
	for _, r := range rep.Routes {
		fmt.Printf("%-16s label=%v fwd=%v\n", r.Router, r.Label, r.NextHops)
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	ef := addEngineFlags(fs)
	src := fs.String("src", "", "source router")
	dest := fs.String("dest", "", "destination prefix")
	allPairs := fs.Bool("all-pairs", false, "verify all-pairs reachability")
	useBonsai := fs.Bool("bonsai", false, "compress before verifying")
	perPair := fs.Bool("per-pair", false, "per-query certification (Minesweeper-style cost)")
	maxClasses := fs.Int("max", 0, "max destination classes")
	fs.Parse(args)
	ctx := context.Background()
	c, tenant, isRemote, err := ef.remote(ctx)
	if err != nil {
		return err
	}
	var eng *bonsai.Engine
	if !isRemote {
		if eng, err = ef.open(); err != nil {
			return err
		}
		defer eng.Close()
	}
	if *allPairs {
		req := bonsai.VerifyRequest{
			Concrete:   !*useBonsai,
			PerPair:    *perPair,
			MaxClasses: *maxClasses,
		}
		var rep *bonsai.Report
		if isRemote {
			rep, err = c.Verify(ctx, tenant, req)
		} else {
			rep, err = eng.Verify(ctx, req)
		}
		if err != nil {
			return err
		}
		if done, err := ef.emit(rep); done {
			return err
		}
		fmt.Println(rep)
		return nil
	}
	if *src == "" || *dest == "" {
		return fmt.Errorf("verify: -src and -dest (or -all-pairs) required")
	}
	var res *bonsai.ReachResult
	switch {
	case isRemote:
		res, err = c.Reach(ctx, tenant, *src, *dest, !*useBonsai)
	case *useBonsai:
		res, err = eng.Reach(ctx, *src, *dest)
	default:
		res, err = eng.ReachConcrete(ctx, *src, *dest)
	}
	if err != nil {
		return err
	}
	if done, err := ef.emit(res); done {
		return err
	}
	fmt.Printf("%s in %v\n", reachLine(res.ReachAnswer), res.Duration.Round(time.Microsecond))
	return nil
}

// reachLine renders a reach answer for the terminal: the verdict and
// reachable_some only for a class without a unique solution, path lengths
// only where a path delivers, and each fault only where it holds.
func reachLine(a bonsai.ReachAnswer) string {
	s := fmt.Sprintf("reachable=%v", a.Reachable)
	if a.Stable != "" {
		s += fmt.Sprintf(" stable=%s reachable_some=%v", a.Stable, a.ReachableSome)
	}
	if a.Reachable || a.ReachableSome {
		maxHops := fmt.Sprint(a.MaxHops)
		if a.Loop {
			maxHops = "unbounded"
		}
		s += fmt.Sprintf(" min_hops=%d max_hops=%s", a.MinHops, maxHops)
	}
	for _, f := range []struct {
		on   bool
		name string
	}{{a.Loop, "loop"}, {a.BlackHole, "black_hole"}, {a.MultipathInconsistent, "multipath_inconsistent"}} {
		if f.on {
			s += " " + f.name
		}
	}
	return s
}

func cmdRoles(args []string) error {
	fs := flag.NewFlagSet("roles", flag.ExitOnError)
	ef := addEngineFlags(fs)
	noErase := fs.Bool("no-erase", false, "count unused communities as distinct")
	noStatics := fs.Bool("no-statics", false, "ignore static routes")
	fs.Parse(args)
	ctx := context.Background()
	req := bonsai.RolesRequest{NoErase: *noErase, NoStatics: *noStatics}
	var rep *bonsai.RolesReport
	if c, tenant, ok, err := ef.remote(ctx); err != nil {
		return err
	} else if ok {
		rep, err = c.Roles(ctx, tenant, req)
		if err != nil {
			return err
		}
	} else {
		eng, err := ef.open()
		if err != nil {
			return err
		}
		defer eng.Close()
		rep, err = eng.Roles(ctx, req)
		if err != nil {
			return err
		}
	}
	if done, err := ef.emit(rep); done {
		return err
	}
	fmt.Printf("%d roles among %d routers\n", rep.Roles, rep.Routers)
	return nil
}
