// Package ec computes destination equivalence classes from a network
// configuration (paper §5.1): because announcements for distinct destination
// prefixes do not interact, the address space is partitioned — via a prefix
// trie — into classes of addresses whose longest-match originated prefix is
// the same, and Bonsai builds one abstraction per class rather than one per
// address.
package ec

import (
	"errors"
	"fmt"
	"net/netip"

	"bonsai/internal/config"
	"bonsai/internal/trie"
)

// ErrNoClass is wrapped by every lookup of a destination that is not a
// prefix or that no class owns: the asker's mistake, not a fault.
var ErrNoClass = errors.New("ec: no destination class")

// Class re-exports trie.Class: a representative prefix plus origin routers.
type Class = trie.Class

// Index is the frozen class lookup of one network: its classes in their
// deterministic (address, prefix length) order, one per originated prefix
// that is the longest match for some address, and the trie that finds the
// class a query names. It is immutable, so one Index serves every query of a
// configuration snapshot.
type Index struct{ *trie.Index }

// NewIndex enumerates the network's destination classes.
func NewIndex(n *config.Network) Index {
	t := trie.New()
	for p, origins := range n.OriginatedPrefixes() {
		for _, o := range origins {
			t.Insert(p, o)
		}
	}
	return Index{t.Freeze()}
}

// ClassFor returns the class a query for the given destination targets: the
// class with exactly that prefix, else the class owning the prefix's
// address. The walk is at most 32 steps and allocates nothing.
func (x Index) ClassFor(prefix string) (Class, error) {
	if p, err := netip.ParsePrefix(prefix); err == nil {
		if c, ok := x.Find(p); ok {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("%w for %q", ErrNoClass, prefix)
}

// Classes returns the destination equivalence classes of the network.
func Classes(n *config.Network) []Class { return NewIndex(n).Classes() }

// ClassFor is the one-shot form of Index.ClassFor, for callers that ask once
// and keep no Index: it enumerates the classes, looks one up and drops the
// rest.
func ClassFor(n *config.Network, prefix string) (Class, error) {
	return NewIndex(n).ClassFor(prefix)
}
