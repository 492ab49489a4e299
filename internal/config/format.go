package config

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"bonsai/internal/policy"
	"bonsai/internal/protocols"
)

// This file implements the plain-text serialisation of a Network. The format
// is line-oriented:
//
//	network NAME
//	router NAME
//	  bgp as ASN [redistribute ospf] [redistribute static]
//	  neighbor PEER [import MAP] [export MAP]
//	  ospf iface PEER cost N area N
//	  static PREFIX via PEER
//	  originate PREFIX
//	  prefix-list NAME permit|deny PREFIX [ge N] [le N]
//	  community-list NAME ASN:TAG ...
//	  route-map NAME SEQ permit|deny
//	    match community LIST
//	    match prefix LIST
//	    set local-preference N
//	    set community add|delete ASN:TAG
//	  acl NAME permit|deny PREFIX [ge N] [le N]
//	  iface-acl PEER ACL
//	link A B [xN] [down]
//
// Indentation is ignored; "router" opens a device context and match/set
// lines attach to the most recent route-map clause.

// Parse reads a Network from its text form.
func Parse(r io.Reader) (*Network, error) {
	net := New("")
	var cur *Router
	var curClause *policy.Clause
	var curMap string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("config: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "network":
			if len(f) != 2 {
				return nil, fail("network NAME")
			}
			net.Name = f[1]
		case "router":
			if len(f) != 2 {
				return nil, fail("router NAME")
			}
			cur = net.AddRouter(f[1])
			curClause, curMap = nil, ""
		case "link":
			if len(f) < 3 {
				return nil, fail("link A B [xN] [down]")
			}
			count, down := 1, false
			for _, tok := range f[3:] {
				if tok == "down" {
					down = true
					continue
				}
				c, err := strconv.Atoi(strings.TrimPrefix(tok, "x"))
				if err != nil || c < 1 {
					return nil, fail("bad link multiplicity %q", tok)
				}
				count = c
			}
			// The first line of an unordered pair is the link, a repeated
			// line's "down" marks that first one.
			at := net.link(f[1], f[2], count)
			if down {
				net.Links[at].Down = true
			}
		case "bgp":
			if cur == nil {
				return nil, fail("bgp outside router")
			}
			if len(f) < 3 || f[1] != "as" {
				return nil, fail("bgp as ASN")
			}
			asn, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fail("bad ASN %q", f[2])
			}
			bgp := cur.EnsureBGP(asn)
			for i := 3; i+1 < len(f); i += 2 {
				if f[i] != "redistribute" {
					return nil, fail("unexpected token %q", f[i])
				}
				switch f[i+1] {
				case "ospf":
					bgp.RedistributeOSPF = true
				case "static":
					bgp.RedistributeStatic = true
				default:
					return nil, fail("cannot redistribute %q", f[i+1])
				}
			}
		case "neighbor":
			if cur == nil || cur.BGP == nil {
				return nil, fail("neighbor outside bgp router")
			}
			if len(f) < 2 {
				return nil, fail("neighbor PEER ...")
			}
			nb := &Neighbor{}
			for i := 2; i+1 < len(f); i += 2 {
				switch f[i] {
				case "import":
					nb.ImportMap = f[i+1]
				case "export":
					nb.ExportMap = f[i+1]
				default:
					return nil, fail("unexpected token %q", f[i])
				}
			}
			cur.BGP.Neighbors[f[1]] = nb
		case "ospf":
			if cur == nil {
				return nil, fail("ospf outside router")
			}
			if len(f) != 7 || f[1] != "iface" || f[3] != "cost" || f[5] != "area" {
				return nil, fail("ospf iface PEER cost N area N")
			}
			cost, err1 := strconv.Atoi(f[4])
			area, err2 := strconv.Atoi(f[6])
			if err1 != nil || err2 != nil {
				return nil, fail("bad ospf numbers")
			}
			cur.EnsureOSPF().Ifaces[f[2]] = OSPFIface{Cost: cost, Area: area}
		case "static":
			if cur == nil {
				return nil, fail("static outside router")
			}
			if len(f) != 4 || f[2] != "via" {
				return nil, fail("static PREFIX via PEER")
			}
			p, err := netip.ParsePrefix(f[1])
			if err != nil {
				return nil, fail("bad prefix %q", f[1])
			}
			cur.Statics = append(cur.Statics, StaticRoute{Prefix: p, NextHop: f[3]})
		case "originate":
			if cur == nil {
				return nil, fail("originate outside router")
			}
			if len(f) != 2 {
				return nil, fail("originate PREFIX")
			}
			p, err := netip.ParsePrefix(f[1])
			if err != nil {
				return nil, fail("bad prefix %q", f[1])
			}
			cur.Originate = append(cur.Originate, p)
		case "prefix-list", "acl":
			if cur == nil {
				return nil, fail("%s outside router", f[0])
			}
			entry, name, err := parsePrefixEntry(f)
			if err != nil {
				return nil, fail("%v", err)
			}
			if f[0] == "prefix-list" {
				pl := cur.Env.PrefixLists[name]
				if pl == nil {
					pl = &policy.PrefixList{Name: name}
					cur.Env.PrefixLists[name] = pl
				}
				pl.Entries = append(pl.Entries, entry)
			} else {
				acl := cur.Env.ACLs[name]
				if acl == nil {
					acl = &policy.ACL{Name: name}
					cur.Env.ACLs[name] = acl
				}
				acl.Entries = append(acl.Entries, entry)
			}
		case "community-list":
			if cur == nil {
				return nil, fail("community-list outside router")
			}
			if len(f) < 3 {
				return nil, fail("community-list NAME C...")
			}
			cl := &policy.CommunityList{Name: f[1]}
			for _, s := range f[2:] {
				c, err := parseCommunity(s)
				if err != nil {
					return nil, fail("%v", err)
				}
				cl.Communities = append(cl.Communities, c)
			}
			cur.Env.CommunityLists[f[1]] = cl
		case "route-map":
			if cur == nil {
				return nil, fail("route-map outside router")
			}
			if len(f) != 4 {
				return nil, fail("route-map NAME SEQ permit|deny")
			}
			seq, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fail("bad sequence %q", f[2])
			}
			action, err := parseAction(f[3])
			if err != nil {
				return nil, fail("%v", err)
			}
			rm := cur.Env.RouteMaps[f[1]]
			if rm == nil {
				rm = &policy.RouteMap{Name: f[1]}
				cur.Env.RouteMaps[f[1]] = rm
			}
			rm.Clauses = append(rm.Clauses, policy.Clause{Seq: seq, Action: action})
			curMap = f[1]
			curClause = &rm.Clauses[len(rm.Clauses)-1]
		case "match":
			if curClause == nil {
				return nil, fail("match outside route-map clause")
			}
			if len(f) != 3 {
				return nil, fail("match community|prefix LIST")
			}
			switch f[1] {
			case "community":
				curClause.Matches = append(curClause.Matches, policy.Match{Kind: policy.MatchCommunity, Arg: f[2]})
			case "prefix":
				curClause.Matches = append(curClause.Matches, policy.Match{Kind: policy.MatchPrefix, Arg: f[2]})
			default:
				return nil, fail("unknown match kind %q", f[1])
			}
		case "set":
			if curClause == nil {
				return nil, fail("set outside route-map clause")
			}
			switch {
			case len(f) == 3 && f[1] == "local-preference":
				v, err := strconv.Atoi(f[2])
				if err != nil || v < 0 {
					return nil, fail("bad local-preference %q", f[2])
				}
				curClause.Sets = append(curClause.Sets, policy.Set{Kind: policy.SetLocalPref, Value: uint32(v)})
			case len(f) == 4 && f[1] == "community":
				c, err := parseCommunity(f[3])
				if err != nil {
					return nil, fail("%v", err)
				}
				switch f[2] {
				case "add":
					curClause.Sets = append(curClause.Sets, policy.Set{Kind: policy.AddCommunity, Comm: c})
				case "delete":
					curClause.Sets = append(curClause.Sets, policy.Set{Kind: policy.DeleteCommunity, Comm: c})
				default:
					return nil, fail("set community add|delete C")
				}
			default:
				return nil, fail("unknown set %q", line)
			}
			_ = curMap
		case "iface-acl":
			if cur == nil {
				return nil, fail("iface-acl outside router")
			}
			if len(f) != 3 {
				return nil, fail("iface-acl PEER ACL")
			}
			cur.IfaceACL[f[1]] = f[2]
		default:
			return nil, fail("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return net, nil
}

// ParseString parses a Network from a string.
func ParseString(s string) (*Network, error) { return Parse(strings.NewReader(s)) }

func parsePrefixEntry(f []string) (policy.PrefixEntry, string, error) {
	// F: kw NAME permit|deny PREFIX [ge N] [le N]
	if len(f) < 4 {
		return policy.PrefixEntry{}, "", fmt.Errorf("%s NAME permit|deny PREFIX [ge N] [le N]", f[0])
	}
	action, err := parseAction(f[2])
	if err != nil {
		return policy.PrefixEntry{}, "", err
	}
	p, err := netip.ParsePrefix(f[3])
	if err != nil {
		return policy.PrefixEntry{}, "", fmt.Errorf("bad prefix %q", f[3])
	}
	e := policy.PrefixEntry{Action: action, Prefix: p}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.Atoi(f[i+1])
		if err != nil {
			return policy.PrefixEntry{}, "", fmt.Errorf("bad bound %q", f[i+1])
		}
		switch f[i] {
		case "ge":
			e.Ge = v
		case "le":
			e.Le = v
		default:
			return policy.PrefixEntry{}, "", fmt.Errorf("unexpected token %q", f[i])
		}
	}
	return e, f[1], nil
}

func parseAction(s string) (policy.Action, error) {
	switch s {
	case "permit":
		return policy.Permit, nil
	case "deny":
		return policy.Deny, nil
	default:
		return 0, fmt.Errorf("bad action %q", s)
	}
}

func parseCommunity(s string) (protocols.Community, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, fmt.Errorf("bad community %q", s)
	}
	asn, err1 := strconv.Atoi(parts[0])
	tag, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || asn < 0 || asn > 0xffff || tag < 0 || tag > 0xffff {
		return 0, fmt.Errorf("bad community %q", s)
	}
	return protocols.MakeCommunity(uint16(asn), uint16(tag)), nil
}

// Print writes the network in its text form, deterministically ordered.
func Print(w io.Writer, n *Network) error {
	bw := bufio.NewWriter(w)
	if n.Name != "" {
		fmt.Fprintf(bw, "network %s\n\n", n.Name)
	}
	for _, name := range n.RouterNames() {
		r := n.Routers[name]
		fmt.Fprintf(bw, "router %s\n", name)
		if r.BGP != nil {
			fmt.Fprintf(bw, "  bgp as %d", r.BGP.ASN)
			if r.BGP.RedistributeOSPF {
				fmt.Fprint(bw, " redistribute ospf")
			}
			if r.BGP.RedistributeStatic {
				fmt.Fprint(bw, " redistribute static")
			}
			fmt.Fprintln(bw)
			for _, peer := range sortedKeys(r.BGP.Neighbors) {
				nb := r.BGP.Neighbors[peer]
				fmt.Fprintf(bw, "  neighbor %s", peer)
				if nb.ImportMap != "" {
					fmt.Fprintf(bw, " import %s", nb.ImportMap)
				}
				if nb.ExportMap != "" {
					fmt.Fprintf(bw, " export %s", nb.ExportMap)
				}
				fmt.Fprintln(bw)
			}
		}
		if r.OSPF != nil {
			for _, peer := range sortedKeys(r.OSPF.Ifaces) {
				i := r.OSPF.Ifaces[peer]
				fmt.Fprintf(bw, "  ospf iface %s cost %d area %d\n", peer, i.Cost, i.Area)
			}
		}
		for _, s := range r.Statics {
			fmt.Fprintf(bw, "  static %s via %s\n", s.Prefix, s.NextHop)
		}
		for _, p := range r.Originate {
			fmt.Fprintf(bw, "  originate %s\n", p)
		}
		for _, pl := range sortedKeys(r.Env.PrefixLists) {
			for _, e := range r.Env.PrefixLists[pl].Entries {
				printEntry(bw, "prefix-list", pl, e)
			}
		}
		for _, cl := range sortedKeys(r.Env.CommunityLists) {
			fmt.Fprintf(bw, "  community-list %s", cl)
			for _, c := range r.Env.CommunityLists[cl].Communities {
				fmt.Fprintf(bw, " %s", c)
			}
			fmt.Fprintln(bw)
		}
		for _, rmName := range sortedKeys(r.Env.RouteMaps) {
			rm := r.Env.RouteMaps[rmName]
			for _, cl := range rm.Clauses {
				fmt.Fprintf(bw, "  route-map %s %d %s\n", rmName, cl.Seq, cl.Action)
				for _, m := range cl.Matches {
					kind := "community"
					if m.Kind == policy.MatchPrefix {
						kind = "prefix"
					}
					fmt.Fprintf(bw, "    match %s %s\n", kind, m.Arg)
				}
				for _, s := range cl.Sets {
					switch s.Kind {
					case policy.SetLocalPref:
						fmt.Fprintf(bw, "    set local-preference %d\n", s.Value)
					case policy.AddCommunity:
						fmt.Fprintf(bw, "    set community add %s\n", s.Comm)
					case policy.DeleteCommunity:
						fmt.Fprintf(bw, "    set community delete %s\n", s.Comm)
					}
				}
			}
		}
		for _, acl := range sortedKeys(r.Env.ACLs) {
			for _, e := range r.Env.ACLs[acl].Entries {
				printEntry(bw, "acl", acl, e)
			}
		}
		for _, peer := range sortedKeys(r.IfaceACL) {
			fmt.Fprintf(bw, "  iface-acl %s %s\n", peer, r.IfaceACL[peer])
		}
		fmt.Fprintln(bw)
	}
	links := append([]Link(nil), n.Links...)
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	for _, l := range links {
		if l.count() > 1 {
			fmt.Fprintf(bw, "link %s %s x%d", l.A, l.B, l.count())
		} else {
			fmt.Fprintf(bw, "link %s %s", l.A, l.B)
		}
		if l.Down {
			fmt.Fprint(bw, " down")
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// PrintString renders the network to a string.
func PrintString(n *Network) string {
	var b strings.Builder
	if err := Print(&b, n); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

func printEntry(w io.Writer, kw, name string, e policy.PrefixEntry) {
	fmt.Fprintf(w, "  %s %s %s %s", kw, name, e.Action, e.Prefix)
	if e.Ge != 0 {
		fmt.Fprintf(w, " ge %d", e.Ge)
	}
	if e.Le != 0 {
		fmt.Fprintf(w, " le %d", e.Le)
	}
	fmt.Fprintln(w)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
