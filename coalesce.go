package bonsai

import (
	"fmt"
	"net/netip"

	"bonsai/internal/config"
)

// maxCoalescedAwayListed caps how many coalesced-away edit descriptions a
// report retains verbatim; past the cap only the counter grows, so a
// million-flap storm cannot balloon the report.
const maxCoalescedAwayListed = 64

// linkKey identifies an undirected link regardless of edit orientation.
type linkKey struct{ a, b string }

func canonLink(a, b string) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey{a, b}
}

// linkAcc folds every link edit for one link into its final desired state.
type linkAcc struct {
	ref      LinkRef // first-seen orientation, used when emitting
	baseIdx  int     // index into base.Links, or -1 when the batch creates it
	baseDown bool
	down     bool // desired final administrative state
}

type editKey struct{ router, name string }

type originKey struct {
	router string
	prefix netip.Prefix
}

type originAcc struct {
	edit       OriginEdit
	originated bool // desired final state
}

// coalesceStats summarizes one coalescing window.
type coalesceStats struct {
	// EditsIn counts individual edits received across the batch's deltas;
	// EditsOut counts edits surviving into the canonical delta.
	EditsIn  int
	EditsOut int
	// CoalescedAway lists (up to maxCoalescedAwayListed) edits that were
	// received but never applied: superseded by a later writer, or
	// cancelled by returning to the base state. Coalesced is the full count.
	CoalescedAway []string
	Coalesced     int
}

// coalescer folds a run of deltas into one canonical Delta against a fixed
// base configuration. Link edits collapse to the final desired state and
// cancel entirely when that matches the base (a down link is topologically
// absent, so "created then downed" also cancels); route-map and prefix-list
// edits are last-writer-wins per (router, name); origin edits are
// last-writer-wins per (router, prefix) and cancel against the base
// origination set. Emission order is first-touch, so the canonical delta is
// deterministic for a given edit sequence.
type coalescer struct {
	base *config.Network

	links     map[linkKey]*linkAcc
	linkOrder []linkKey

	rms     map[editKey]RouteMapEdit
	rmOrder []editKey

	pls     map[editKey]PrefixListEdit
	plOrder []editKey

	origins     map[originKey]*originAcc
	originOrder []originKey

	editsIn  int
	dropped  []string
	droppedN int
}

func newCoalescer(base *config.Network) *coalescer {
	return &coalescer{
		base:    base,
		links:   make(map[linkKey]*linkAcc),
		rms:     make(map[editKey]RouteMapEdit),
		pls:     make(map[editKey]PrefixListEdit),
		origins: make(map[originKey]*originAcc),
	}
}

func (c *coalescer) drop(desc string) {
	c.droppedN++
	if len(c.dropped) < maxCoalescedAwayListed {
		c.dropped = append(c.dropped, desc)
	}
}

// add validates d — against the base configuration plus the batch's pending
// link creations — and folds its edits into the batch. A delta that fails is
// rejected whole: on error the batch is unchanged.
func (c *coalescer) add(d Delta) error {
	err := d.validate(c.base, func(a, b string) bool {
		if c.base.FindLink(a, b) >= 0 {
			return true
		}
		_, pending := c.links[canonLink(a, b)]
		return pending
	})
	if err != nil {
		return err
	}
	for _, l := range d.LinkDown {
		c.foldLink(l, true)
	}
	for _, l := range d.LinkUp {
		c.foldLink(l, false)
	}
	for _, e := range d.SetRouteMaps {
		c.editsIn++
		k := editKey{e.Router, e.Name}
		if prev, ok := c.rms[k]; ok {
			c.drop(fmt.Sprintf("set_route_map %s/%s", prev.Router, prev.Name))
		} else {
			c.rmOrder = append(c.rmOrder, k)
		}
		c.rms[k] = e
	}
	for _, e := range d.SetPrefixLists {
		c.editsIn++
		k := editKey{e.Router, e.Name}
		if prev, ok := c.pls[k]; ok {
			c.drop(fmt.Sprintf("set_prefix_list %s/%s", prev.Router, prev.Name))
		} else {
			c.plOrder = append(c.plOrder, k)
		}
		c.pls[k] = e
	}
	for _, e := range d.AddOriginated {
		c.foldOrigin(e, true)
	}
	for _, e := range d.RemoveOriginated {
		c.foldOrigin(e, false)
	}
	return nil
}

func (c *coalescer) foldLink(l LinkRef, down bool) {
	c.editsIn++
	k := canonLink(l.A, l.B)
	acc, ok := c.links[k]
	if !ok {
		idx := c.base.FindLink(l.A, l.B)
		acc = &linkAcc{ref: l, baseIdx: idx}
		if idx >= 0 {
			acc.baseDown = c.base.Links[idx].Down
		}
		c.links[k] = acc
		c.linkOrder = append(c.linkOrder, k)
	} else {
		c.drop(linkEditDesc(acc.ref, acc.down))
	}
	acc.down = down
}

func (c *coalescer) foldOrigin(e OriginEdit, add bool) {
	c.editsIn++
	p, err := netip.ParsePrefix(e.Prefix)
	if err != nil {
		// validate already rejected unparseable prefixes.
		return
	}
	k := originKey{e.Router, p.Masked()}
	acc, ok := c.origins[k]
	if !ok {
		acc = &originAcc{edit: e}
		c.origins[k] = acc
		c.originOrder = append(c.originOrder, k)
	} else {
		c.drop(originEditDesc(acc.edit, acc.originated))
	}
	acc.edit = e
	acc.originated = add
}

func linkEditDesc(l LinkRef, down bool) string {
	if down {
		return fmt.Sprintf("link_down %s--%s", l.A, l.B)
	}
	return fmt.Sprintf("link_up %s--%s", l.A, l.B)
}

func originEditDesc(e OriginEdit, add bool) string {
	if add {
		return fmt.Sprintf("add_originated %s %s", e.Router, e.Prefix)
	}
	return fmt.Sprintf("remove_originated %s %s", e.Router, e.Prefix)
}

// baseOriginates reports whether the base configuration already originates
// the (masked) prefix at the router.
func (c *coalescer) baseOriginates(k originKey) bool {
	r, ok := c.base.Routers[k.router]
	if !ok {
		return false
	}
	for _, q := range r.Originate {
		if q == k.prefix {
			return true
		}
	}
	return false
}

// build emits the canonical merged delta. Edits whose final state matches
// the base are cancelled here (and counted as coalesced away), so a flap
// storm that returns every link to its initial state builds an empty delta.
func (c *coalescer) build() (Delta, coalesceStats) {
	var out Delta
	for _, k := range c.linkOrder {
		acc := c.links[k]
		if acc.baseIdx < 0 {
			if acc.down {
				// Created and then taken down inside the batch: a down
				// link contributes no SRP adjacency, so the net effect
				// is indistinguishable from never creating it.
				c.drop(linkEditDesc(acc.ref, true))
				continue
			}
			out.LinkUp = append(out.LinkUp, acc.ref)
			continue
		}
		if acc.down == acc.baseDown {
			c.drop(linkEditDesc(acc.ref, acc.down))
			continue
		}
		if acc.down {
			out.LinkDown = append(out.LinkDown, acc.ref)
		} else {
			out.LinkUp = append(out.LinkUp, acc.ref)
		}
	}
	for _, k := range c.rmOrder {
		out.SetRouteMaps = append(out.SetRouteMaps, c.rms[k])
	}
	for _, k := range c.plOrder {
		out.SetPrefixLists = append(out.SetPrefixLists, c.pls[k])
	}
	for _, k := range c.originOrder {
		acc := c.origins[k]
		if acc.originated == c.baseOriginates(k) {
			c.drop(originEditDesc(acc.edit, acc.originated))
			continue
		}
		if acc.originated {
			out.AddOriginated = append(out.AddOriginated, acc.edit)
		} else {
			out.RemoveOriginated = append(out.RemoveOriginated, acc.edit)
		}
	}
	editsOut := len(out.LinkDown) + len(out.LinkUp) +
		len(out.SetRouteMaps) + len(out.SetPrefixLists) +
		len(out.AddOriginated) + len(out.RemoveOriginated)
	return out, coalesceStats{
		EditsIn:       c.editsIn,
		EditsOut:      editsOut,
		CoalescedAway: c.dropped,
		Coalesced:     c.droppedN,
	}
}
