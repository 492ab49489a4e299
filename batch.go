package bonsai

import (
	"fmt"
	"maps"
	"slices"

	"bonsai/internal/config"
	"bonsai/internal/topo"
)

// batch is a run of deltas applied in order to a private fork of one
// snapshot's configuration: the one semantics of a delta. Apply is a batch
// of one, and ApplyStream and ApplyAll cut one batch per flush. Each delta
// is validated against the fork as the deltas before it left it, its policy
// and origin edits are made on clones of the routers it edits, and a router
// whose policy namespace changed gets the check a successor Builder runs
// (config.CheckRouter). A delta that fails either check is refused on its
// own and leaves the fork untouched; the deltas around it stand. So the
// fork is the configuration per-delta Apply reaches, however the deltas
// are cut into batches.
type batch struct {
	base *config.Network
	// names is the snapshot's router numbering: no delta adds or removes a
	// router.
	names *topo.Graph
	// cfg is base's fork, made at the first delta accepted; nil before.
	cfg *config.Network
	// touched lists the routers cfg holds a copy of, in the order first
	// edited.
	touched []string
	// edits counts the edits of the deltas accepted.
	edits int
}

func newBatch(st *engineState) *batch {
	return &batch{base: st.cfg, names: st.b.G}
}

func (bt *batch) id(name string) (int32, bool) {
	u, ok := bt.names.Lookup(name)
	return int32(u), ok
}

// add applies d to the fork, or refuses it and leaves the fork as it was.
func (bt *batch) add(d *Delta) error {
	cfg := bt.cfg
	if cfg == nil {
		cfg = bt.base
	}
	if err := d.Validate(cfg); err != nil {
		return err
	}
	routers := d.editRouters(cfg)
	names := slices.Sorted(maps.Keys(routers))
	for _, name := range names {
		// A router keeping its namespace keeps its verdict: link records
		// are never removed, so its peers only grow.
		if r := routers[name]; r.Env != cfg.Routers[name].Env {
			if err := config.CheckRouter(name, r, bt.peers(cfg, name), bt.id); err != nil {
				return fmt.Errorf("it produces an invalid network: %w", err)
			}
		}
	}
	if bt.cfg == nil {
		bt.cfg = bt.base.Fork()
	}
	for _, name := range names {
		if bt.cfg.Routers[name] == bt.base.Routers[name] {
			bt.touched = append(bt.touched, name)
		}
		bt.cfg.Routers[name] = routers[name]
	}
	d.editLinks(bt.cfg)
	bt.edits += d.edits()
	return nil
}

// peers returns the named router's peers over cfg's link records as sorted
// ids: the adjacency a successor checks it by. The links a delta adds can
// be left out, because no delta edits a session, an interface or a static
// route, and no link record is ever removed: the router's peers still
// cover all it names.
func (bt *batch) peers(cfg *config.Network, name string) []int32 {
	var out []int32
	for _, l := range cfg.Links {
		peer := l.B
		if l.B == name {
			peer = l.A
		} else if l.A != name {
			continue
		}
		if v, ok := bt.id(peer); ok {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// settle gives back the base's pointer to every router the batch left as
// the base has it (the same namespace and equal originated prefixes; a
// delta edits nothing else of a router) and returns the net change: how
// many link records differ from the base's, and the routers that do.
func (bt *batch) settle() (links int, routers []string) {
	if bt.cfg == nil {
		return 0, nil
	}
	for i, l := range bt.base.Links {
		if bt.cfg.Links[i].Down != l.Down {
			links++
		}
	}
	links += len(bt.cfg.Links) - len(bt.base.Links)
	for _, name := range bt.touched {
		r, old := bt.cfg.Routers[name], bt.base.Routers[name]
		if r.Env == old.Env && slices.Equal(r.Originate, old.Originate) {
			bt.cfg.Routers[name] = old
			continue
		}
		routers = append(routers, name)
	}
	return links, routers
}
