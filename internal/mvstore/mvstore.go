// Package mvstore implements a generic multi-version state layer for
// optimistic (speculative) execution.
//
// A Store[K,V] wraps a committed base store (any structure exposing
// the Base interface: a map, a btree, ...) with per-key version
// chains. Speculative writes land as uncommitted versions tagged with
// a speculation Epoch; reads resolve through the newest uncommitted
// version, else the committed tip; Commit(epoch) promotes the epoch's
// versions into the base (a pointer flip per key); Abort(epoch) drops
// them. Both Commit and Abort walk only the keys the epoch touched —
// the store keeps a per-epoch journal — so rollback cost is
// O(touched keys), independent of the size of the committed state.
//
// # Safety argument
//
// The correctness of the (top-of-chain | committed tip) read rule and
// of per-key promotion relies on two invariants the optimistic
// executor provides:
//
//  1. Conflict-serial execution. Two commands that touch the same key
//     conflict, and the scheduling engine executes conflicting
//     commands serially in admission order. Therefore the versions in
//     one key's chain were appended in a serial order consistent with
//     the speculative admission order, and at most one epoch is
//     actively writing a given key at any instant. A speculating
//     command reading "newest version" observes exactly the state its
//     serial predecessors produced — which is also the only state it
//     could observe in any equivalent serial execution.
//
//  2. Prefix-ordered resolution. The reconciler confirms or aborts
//     epochs so that when Commit(e) runs, every conflicting
//     predecessor of e has already been committed or aborted: e's
//     versions sit at the BOTTOM of their chains, directly above the
//     committed tip, so promoting them preserves the chain's serial
//     history. Symmetrically, aborts run newest-first (the executor
//     withdraws a tainted suffix in reverse execution order), so
//     Abort(e) removes versions from the TOP of their chains and the
//     surviving prefix below stays intact. Both operations are
//     implemented as a search over the (short) chain rather than
//     assuming the position, so a violation degrades to a different
//     serial order, never to a corrupted chain.
//
// Epoch 0 (Committed) addresses the base directly and is the
// non-speculative fast path: when no speculation is configured the
// overlay stays empty and reads/writes do not take the version lock,
// preserving the engines' lock-free committed hot path.
//
// The model follows the multi-version state cache of Octopus-style
// two-phase execution (speculate against versioned state, validate,
// then flip) and the read/write-set discipline CBASE brought to SMR;
// see PAPERS.md for what was adopted versus deviated from.
package mvstore

import "sync"

// Epoch tags a speculation. Epoch 0 is the committed state itself;
// speculative executions use the monotonically increasing epochs the
// optimistic executor assigns per admitted command.
type Epoch uint64

// Committed is the epoch of the committed state: operations at this
// epoch bypass the version overlay and address the base directly.
const Committed Epoch = 0

// Base is the committed store underneath a Store's version overlay.
// Implementations need no internal synchronization beyond what their
// non-speculative callers already provide; the Store serializes its
// own access to the base.
type Base[K comparable, V any] interface {
	Get(k K) (V, bool)
	Put(k K, v V)
	Delete(k K) bool
	Len() int
	// Range calls fn for every committed entry until fn returns
	// false. Iteration order is implementation-defined.
	Range(fn func(k K, v V) bool)
}

// version is one uncommitted entry in a key's chain. A tombstone
// records a speculative delete.
type version[V any] struct {
	epoch     Epoch
	value     V
	tombstone bool
}

// chain holds a key's uncommitted versions, oldest first. The
// committed tip lives in the base, below the chain.
type chain[V any] struct {
	versions []version[V]
}

func (c *chain[V]) top() *version[V] {
	if len(c.versions) == 0 {
		return nil
	}
	return &c.versions[len(c.versions)-1]
}

// Store is a multi-version overlay over a committed Base.
//
// Concurrency: speculative operations (epoch != Committed) and the
// commit/abort/snapshot paths synchronize on one RWMutex, because a
// Commit can restructure the base (e.g. a btree insert) while workers
// read other keys speculatively. Operations at the Committed epoch
// take the read lock only when uncommitted versions exist, keeping
// the non-optimistic deployment's hot path unchanged (overlay empty
// ⇒ no contention beyond one atomic-free counter check under RLock).
type Store[K comparable, V any] struct {
	mu     sync.RWMutex
	base   Base[K, V]
	clone  func(V) V // nil ⇒ values are safe to share (value types / immutable)
	chains map[K]*chain[V]
	// journal remembers which keys each live epoch touched, in touch
	// order, making Commit/Abort O(touched keys).
	journal map[Epoch][]K
}

// New builds a Store over base. clone, when non-nil, deep-copies a
// value before a Mutate hands it to the caller for in-place editing;
// pass nil when values are immutable or copied by assignment.
func New[K comparable, V any](base Base[K, V], clone func(V) V) *Store[K, V] {
	return &Store[K, V]{
		base:    base,
		clone:   clone,
		chains:  make(map[K]*chain[V]),
		journal: make(map[Epoch][]K),
	}
}

// Base returns the committed base store. Callers touching it directly
// must hold no speculative state for the affected keys (it is meant
// for preload/restore paths).
func (s *Store[K, V]) Base() Base[K, V] { return s.base }

// Reset drops every uncommitted version and re-points the store at
// base (used by Restore paths that rebuild committed state wholesale).
func (s *Store[K, V]) Reset(base Base[K, V]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = base
	s.chains = make(map[K]*chain[V])
	s.journal = make(map[Epoch][]K)
}

// Get resolves k at epoch e: the newest uncommitted version if any,
// else the committed tip. A tombstone reads as absent.
func (s *Store[K, V]) Get(e Epoch, k K) (V, bool) {
	if e == Committed {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.base.Get(k)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c, ok := s.chains[k]; ok {
		if v := c.top(); v != nil {
			if v.tombstone {
				var zero V
				return zero, false
			}
			return v.value, true
		}
	}
	return s.base.Get(k)
}

// Put writes v for k. At the Committed epoch it writes the base
// directly; otherwise it lands as an uncommitted version owned by e.
func (s *Store[K, V]) Put(e Epoch, k K, v V) {
	if e == Committed {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.base.Put(k, v)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLocked(e, k, version[V]{epoch: e, value: v})
}

// Delete removes k at epoch e. Speculative deletes land as
// tombstones; the committed entry is untouched until Commit. The
// boolean reports whether k was visible at e before the delete.
func (s *Store[K, V]) Delete(e Epoch, k K) bool {
	if e == Committed {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.base.Delete(k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	visible := false
	if c, ok := s.chains[k]; ok && c.top() != nil {
		visible = !c.top().tombstone
	} else if _, ok := s.base.Get(k); ok {
		visible = true
	}
	if !visible {
		return false
	}
	s.appendLocked(e, k, version[V]{epoch: e, tombstone: true})
	return true
}

// Mutate returns a value for k at epoch e that the caller may edit in
// place, installing it as e's uncommitted version first if the
// visible version is not already owned by e. Returns (zero, false)
// when k is not visible at e. For pointer-shaped values the configured
// clone func keeps committed state (and other epochs' versions)
// isolated from the edit.
func (s *Store[K, V]) Mutate(e Epoch, k K) (V, bool) {
	if e == Committed {
		// Committed mutation edits the base value directly; for
		// pointer values that is the pre-mvstore behavior.
		s.mu.Lock()
		defer s.mu.Unlock()
		v, ok := s.base.Get(k)
		return v, ok
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chains[k]; ok {
		if top := c.top(); top != nil {
			if top.tombstone {
				var zero V
				return zero, false
			}
			if top.epoch == e {
				return top.value, true
			}
			nv := top.value
			if s.clone != nil {
				nv = s.clone(nv)
			}
			s.appendLocked(e, k, version[V]{epoch: e, value: nv})
			return nv, true
		}
	}
	v, ok := s.base.Get(k)
	if !ok {
		var zero V
		return zero, false
	}
	if s.clone != nil {
		v = s.clone(v)
	}
	s.appendLocked(e, k, version[V]{epoch: e, value: v})
	return v, true
}

func (s *Store[K, V]) appendLocked(e Epoch, k K, v version[V]) {
	c, ok := s.chains[k]
	if !ok {
		c = &chain[V]{}
		s.chains[k] = c
	}
	// Collapse consecutive writes by the same epoch to one version.
	if top := c.top(); top != nil && top.epoch == e {
		*top = v
		return
	}
	c.versions = append(c.versions, v)
	s.journal[e] = append(s.journal[e], k)
}

// Commit promotes epoch e's versions into the committed base and
// forgets the epoch. Cost is O(keys e touched). Committing an epoch
// with no versions is a no-op.
func (s *Store[K, V]) Commit(e Epoch) {
	if e == Committed {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.journal[e] {
		c := s.chains[k]
		if c == nil {
			continue
		}
		for i, v := range c.versions {
			if v.epoch != e {
				continue
			}
			// Promote to the base. With prefix-ordered resolution i
			// is 0; the search keeps the chain coherent regardless.
			if v.tombstone {
				s.base.Delete(k)
			} else {
				s.base.Put(k, v.value)
			}
			c.versions = append(c.versions[:i], c.versions[i+1:]...)
			break
		}
		if len(c.versions) == 0 {
			delete(s.chains, k)
		}
	}
	delete(s.journal, e)
}

// Abort drops epoch e's versions without touching the committed base.
// Cost is O(keys e touched). Aborting an unknown epoch is a no-op.
func (s *Store[K, V]) Abort(e Epoch) {
	if e == Committed {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := s.journal[e]
	// Newest-touched first: with reverse-order withdrawal the epoch's
	// versions are at their chains' tops.
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		c := s.chains[k]
		if c == nil {
			continue
		}
		for j := len(c.versions) - 1; j >= 0; j-- {
			if c.versions[j].epoch == e {
				c.versions = append(c.versions[:j], c.versions[j+1:]...)
				break
			}
		}
		if len(c.versions) == 0 {
			delete(s.chains, k)
		}
	}
	delete(s.journal, e)
}

// Uncommitted reports the number of uncommitted versions across all
// chains (tombstones included).
func (s *Store[K, V]) Uncommitted() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.chains {
		n += len(c.versions)
	}
	return n
}

// LiveEpochs reports the number of epochs with journaled writes.
func (s *Store[K, V]) LiveEpochs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.journal)
}

// RangeCommitted iterates the committed base only — uncommitted
// versions are invisible. Snapshots and fingerprints use this to
// observe exactly the confirmed state.
func (s *Store[K, V]) RangeCommitted(fn func(k K, v V) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.base.Range(fn)
}

// CommittedLen reports the committed base's entry count.
func (s *Store[K, V]) CommittedLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base.Len()
}

// MapBase is a Base backed by a plain map, the fit for flat-keyed
// stores (netfs path/fd tables).
type MapBase[K comparable, V any] map[K]V

func (m MapBase[K, V]) Get(k K) (V, bool) { v, ok := m[k]; return v, ok }
func (m MapBase[K, V]) Put(k K, v V)      { m[k] = v }
func (m MapBase[K, V]) Delete(k K) bool {
	_, ok := m[k]
	delete(m, k)
	return ok
}
func (m MapBase[K, V]) Len() int { return len(m) }
func (m MapBase[K, V]) Range(fn func(k K, v V) bool) {
	for k, v := range m {
		if !fn(k, v) {
			return
		}
	}
}
