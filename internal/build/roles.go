// Router roles (paper §8): two routers play the same role when their
// configurations are equal as templates — identical policy structure with
// instance-specific identifiers (names, AS numbers, originated addresses,
// neighbor names, OSPF area numbers) abstracted away. The paper reports how
// unused-tag erasure collapses the role count of the operational datacenter
// from 112 to 26, and to 8 when static routes are also ignored.

package build

import (
	"sort"
	"strconv"
	"strings"

	"bonsai/internal/config"
	"bonsai/internal/policy"
	"bonsai/internal/protocols"
)

// RoleCount returns the number of distinct router roles in the network.
// With eraseUnusedTags, community sets whose community is never matched by
// any route map in the network are dropped from the signatures (the §8
// attribute abstraction); with ignoreStatics, static routes are excluded.
func (b *Builder) RoleCount(eraseUnusedTags, ignoreStatics bool) int {
	var matched map[protocols.Community]bool
	if eraseUnusedTags {
		matched = b.matchedSet
	}
	seen := make(map[string]bool)
	for _, r := range b.routers {
		seen[RoleSignature(r, matched, eraseUnusedTags, ignoreStatics)] = true
	}
	return len(seen)
}

// RoleSignature renders a router's configuration template as a canonical
// string: two routers share a role iff their signatures are equal. matched
// is the set of communities that some route map in the network can match;
// with eraseUnusedTags, community sets outside that set are erased (a nil
// map erases every community set). With ignoreStatics, static routes are
// left out of the signature.
//
// Instance-specific identifiers are deliberately excluded: router and
// neighbor names, AS numbers, OSPF areas, and originated prefix values
// (only their count is kept) — roles describe configuration shape, not
// addressing.
func RoleSignature(r *config.Router, matched map[protocols.Community]bool, eraseUnusedTags, ignoreStatics bool) string {
	var sb strings.Builder
	if r.BGP != nil {
		sb.WriteString("bgp")
		if r.BGP.RedistributeOSPF {
			sb.WriteString(" redist-ospf")
		}
		if r.BGP.RedistributeStatic {
			sb.WriteString(" redist-static")
		}
		sessions := make([]string, 0, len(r.BGP.Neighbors))
		for _, nb := range r.BGP.Neighbors {
			var s strings.Builder
			s.WriteString("imp{")
			renderRouteMap(&s, r.Env, nb.ImportMap, matched, eraseUnusedTags)
			s.WriteString("}exp{")
			renderRouteMap(&s, r.Env, nb.ExportMap, matched, eraseUnusedTags)
			s.WriteString("}")
			sessions = append(sessions, s.String())
		}
		sort.Strings(sessions)
		for _, s := range sessions {
			sb.WriteString(";")
			sb.WriteString(s)
		}
		sb.WriteString("\n")
	}
	if r.OSPF != nil {
		sb.WriteString("ospf")
		ifaces := make([]string, 0, len(r.OSPF.Ifaces))
		for _, ifc := range r.OSPF.Ifaces {
			ifaces = append(ifaces, "cost="+strconv.Itoa(ifc.Cost))
		}
		sort.Strings(ifaces)
		sb.WriteString(strings.Join(ifaces, ";"))
		sb.WriteString("\n")
	}
	if !ignoreStatics && len(r.Statics) > 0 {
		routes := make([]string, 0, len(r.Statics))
		for _, s := range r.Statics {
			routes = append(routes, s.Prefix.Masked().String())
		}
		sort.Strings(routes)
		sb.WriteString("static ")
		sb.WriteString(strings.Join(routes, ";"))
		sb.WriteString("\n")
	}
	sb.WriteString("orig=")
	sb.WriteString(strconv.Itoa(len(r.Originate)))
	sb.WriteString("\n")
	if len(r.IfaceACL) > 0 {
		acls := make([]string, 0, len(r.IfaceACL))
		for _, name := range r.IfaceACL {
			var s strings.Builder
			renderACL(&s, r.Env.ACLs[name])
			acls = append(acls, s.String())
		}
		sort.Strings(acls)
		sb.WriteString("acl ")
		sb.WriteString(strings.Join(acls, ";"))
		sb.WriteString("\n")
	}
	return sb.String()
}

// renderRouteMap writes the route map's template: clause structure with
// referenced lists resolved to their contents (names are identifiers, not
// template), applying community erasure to set actions.
func renderRouteMap(sb *strings.Builder, env *policy.Env, name string, matched map[protocols.Community]bool, erase bool) {
	if name == "" {
		return
	}
	rm, ok := env.RouteMaps[name]
	if !ok {
		sb.WriteString("?")
		return
	}
	for i := range rm.Clauses {
		cl := &rm.Clauses[i]
		if i > 0 {
			sb.WriteString("|")
		}
		sb.WriteString(cl.Action.String())
		for _, m := range cl.Matches {
			switch m.Kind {
			case policy.MatchCommunity:
				sb.WriteString(" mc[")
				if l, ok := env.CommunityLists[m.Arg]; ok {
					renderComms(sb, l.Communities)
				}
				sb.WriteString("]")
			case policy.MatchPrefix:
				sb.WriteString(" mp[")
				if l, ok := env.PrefixLists[m.Arg]; ok {
					renderEntries(sb, l.Entries)
				}
				sb.WriteString("]")
			}
		}
		for _, s := range cl.Sets {
			switch s.Kind {
			case policy.SetLocalPref:
				sb.WriteString(" lp=")
				sb.WriteString(strconv.FormatUint(uint64(s.Value), 10))
			case policy.AddCommunity:
				if !erase || matched[s.Comm] {
					sb.WriteString(" +")
					sb.WriteString(s.Comm.String())
				}
			case policy.DeleteCommunity:
				if !erase || matched[s.Comm] {
					sb.WriteString(" -")
					sb.WriteString(s.Comm.String())
				}
			}
		}
	}
}

func renderComms(sb *strings.Builder, cs []protocols.Community) {
	strs := make([]string, len(cs))
	for i, c := range cs {
		strs[i] = c.String()
	}
	sort.Strings(strs)
	sb.WriteString(strings.Join(strs, ","))
}

func renderEntries(sb *strings.Builder, entries []policy.PrefixEntry) {
	for i, e := range entries {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(e.Action.String())
		sb.WriteString(" ")
		sb.WriteString(e.Prefix.String())
		if e.Ge != 0 || e.Le != 0 {
			sb.WriteString(" ge")
			sb.WriteString(strconv.Itoa(e.Ge))
			sb.WriteString(" le")
			sb.WriteString(strconv.Itoa(e.Le))
		}
	}
}

func renderACL(sb *strings.Builder, a *policy.ACL) {
	if a == nil {
		sb.WriteString("?")
		return
	}
	renderEntries(sb, a.Entries)
}
