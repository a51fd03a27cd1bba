// Package cdep implements the command-dependency machinery of P-SMR
// (paper §IV-B/§IV-C): the C-Dep structure a service designer provides,
// and the compiler that derives the Command-to-Groups (C-G) function
// from C-Dep and the multiprogramming level.
//
// C-Dep encodes the paper's two levels of dependency information:
// commands that depend on each other regardless of parameters
// (Dep.SameKey == false, e.g. create/delete of objects) and commands
// that depend on each other only when they touch the same object
// (Dep.SameKey == true, e.g. two updates on the same key). If no entry
// asserts a dependency between two commands, they are independent.
//
// An invocation's accessed objects are declared through extractors.
// The paper's C-G keys each command by a single object (Command.Key);
// this package generalises that to key SETS (Command.KeySet), following
// the class-to-worker-set compilation of "Early Scheduling in Parallel
// State Machine Replication" (Alchieri, Dotti, Pedone) and the
// read/write-set conflict detection of CBASE (Kotla & Dahlin, DSN'04).
// Two same-key-dependent invocations conflict iff their key sets
// intersect, so a command touching {a, b} serializes against commands
// on a and commands on b but runs in parallel with everything else —
// without falling back to synchronous mode.
//
// Compiling C-Dep assigns every command a class:
//
//   - Global — the command conflicts with commands whose group cannot be
//     predicted, so it must be multicast to all groups (synchronous
//     mode). Example: kvstore insert/delete.
//   - Keyed — the command conflicts only with same-key commands; it is
//     multicast to the single group its key maps to. Example: kvstore
//     read/update, NetFS read/write (keyed by path).
//   - MultiKeyed — the command conflicts with same-key commands over a
//     key set; it is multicast to the union of its keys' groups and
//     executes after a rendezvous across the owners of those keys.
//     Example: kvstore transfer {from, to}, NetFS create {path, parent}.
//   - Independent — the command conflicts with nothing (or only with
//     Global commands); it is multicast to one group chosen at random,
//     like get_state in the paper's first C-G example.
//
// The same compiled specification also answers pairwise conflict
// queries, which is what the sP-SMR scheduler uses.
package cdep

import (
	"fmt"
	"sort"

	"github.com/psmr/psmr/internal/command"
)

// KeyFunc extracts the object key a command invocation touches. ok is
// false when the invocation has no key (the command then conflicts as if
// keys differed).
type KeyFunc func(input []byte) (key uint64, ok bool)

// KeySetFunc extracts the set of object keys a command invocation
// touches (a multi-key command's read/write set, à la CBASE). The
// returned slice may be unsorted and contain duplicates; the compiled
// spec canonicalises it. ok is false (or the set empty) when the
// invocation's key set cannot be determined — such invocations fall
// back to synchronous mode, like keyless invocations of keyed commands.
type KeySetFunc func(input []byte) (keys []uint64, ok bool)

// Command declares one command of a service. At most one of Key and
// KeySet may be set; the single-key Key is the adapter for commands
// touching exactly one object (the paper's original C-G keying), KeySet
// declares a multi-key command.
type Command struct {
	ID   command.ID
	Name string
	// Key extracts the accessed object; required for single-key
	// commands involved in SameKey dependencies.
	Key KeyFunc
	// KeySet extracts the accessed object set; declares the command
	// multi-key. Mutually exclusive with Key.
	KeySet KeySetFunc
}

// Dep declares a dependency between command types A and B (order does
// not matter; A may equal B). SameKey limits the dependency to
// invocations touching the same key.
type Dep struct {
	A, B    command.ID
	SameKey bool
}

// Spec is a service's command-dependency specification: the C-Dep of
// paper §IV-B, provided by the service designer alongside the service
// code.
type Spec struct {
	Commands []Command
	Deps     []Dep
}

// Class is the compiled placement class of a command.
type Class int

// Command placement classes.
const (
	// Independent commands go to one random group (parallel mode).
	Independent Class = iota + 1
	// Keyed commands go to the single group their key maps to.
	Keyed
	// Global commands go to every group (synchronous mode).
	Global
	// MultiKeyed commands go to the union of their keys' groups and
	// rendezvous across the owners of those keys.
	MultiKeyed
)

func (c Class) String() string {
	switch c {
	case Independent:
		return "independent"
	case Keyed:
		return "keyed"
	case Global:
		return "global"
	case MultiKeyed:
		return "multikey"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

type pairKey struct{ a, b command.ID }

func orderedPair(a, b command.ID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a: a, b: b}
}

// Compiled is the result of compiling a Spec for a given
// multiprogramming level: the C-G function plus pairwise conflict
// queries.
type Compiled struct {
	k         int
	classes   map[command.ID]Class
	keys      map[command.ID]KeyFunc
	keySets   map[command.ID]KeySetFunc
	deps      map[pairKey]bool // value: SameKey
	placement map[uint64]int
	routes    map[command.ID]Route
	all       command.Gamma
}

// Option configures compilation.
type Option interface {
	apply(*options)
}

type options struct {
	placement  map[uint64]int
	workerSets map[command.ID]command.Gamma
}

type placementOption map[uint64]int

func (p placementOption) apply(o *options) { o.placement = p }

type workerSetOption struct {
	cmd command.ID
	set command.Gamma
}

func (w workerSetOption) apply(o *options) {
	if o.workerSets == nil {
		o.workerSets = make(map[command.ID]command.Gamma)
	}
	o.workerSets[w.cmd] = w.set
}

// WithWorkerSet restricts the workers (equivalently, groups) that
// invocations of cmd may be routed to. The restriction lands in the
// compiled route table (Route.Workers), where both the index engine's
// placement and the client-side C-G function (Groups) honour it: a
// keyed command hashes its key over the restricted set, an independent
// command draws a random member. Commands linked by a same-key
// dependency must share a worker set, otherwise Compile fails (their
// invocations would be routed to disjoint destinations).
func WithWorkerSet(cmd command.ID, workers ...int) Option {
	return workerSetOption{cmd: cmd, set: command.GammaOf(workers...)}
}

// WithPlacement pins specific keys to specific groups, overriding the
// default key-to-group hash. This implements the paper's load-balancing
// hint: "if heavily accessed objects are known in advance, this
// information can be used when computing the C-G function so that such
// objects are assigned to distinct groups" (§IV-D).
func WithPlacement(keyToGroup map[uint64]int) Option {
	return placementOption(keyToGroup)
}

// Compile derives the C-G function for a multiprogramming level of k
// worker threads. It returns an error for inconsistent specifications
// (unknown command in a dep, SameKey dep without a key extractor,
// invalid k or placement).
func Compile(spec Spec, k int, opts ...Option) (*Compiled, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("cdep: multiprogramming level %d outside [1,64]", k)
	}
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	for key, g := range o.placement {
		if g < 0 || g >= k {
			return nil, fmt.Errorf("cdep: placement of key %d to group %d outside [0,%d)", key, g, k)
		}
	}
	for cmd, set := range o.workerSets {
		if set == 0 {
			return nil, fmt.Errorf("cdep: empty worker set for command %d", cmd)
		}
		if ws := set.Workers(); ws[len(ws)-1] >= k {
			return nil, fmt.Errorf("cdep: worker set %v of command %d outside [0,%d)", set, cmd, k)
		}
	}

	known := make(map[command.ID]bool, len(spec.Commands))
	keys := make(map[command.ID]KeyFunc, len(spec.Commands))
	keySets := make(map[command.ID]KeySetFunc)
	for _, c := range spec.Commands {
		if known[c.ID] {
			return nil, fmt.Errorf("cdep: duplicate command id %d (%s)", c.ID, c.Name)
		}
		known[c.ID] = true
		if c.Key != nil && c.KeySet != nil {
			return nil, fmt.Errorf("cdep: command %d (%s) declares both Key and KeySet", c.ID, c.Name)
		}
		if c.Key != nil {
			keys[c.ID] = c.Key
		}
		if c.KeySet != nil {
			keySets[c.ID] = c.KeySet
		}
	}

	for cmd := range o.workerSets {
		if !known[cmd] {
			return nil, fmt.Errorf("cdep: worker set for unknown command %d", cmd)
		}
	}

	setOf := func(cmd command.ID) command.Gamma {
		if ws, ok := o.workerSets[cmd]; ok {
			return ws
		}
		return command.AllWorkers(k)
	}

	deps := make(map[pairKey]bool, len(spec.Deps))
	hasKeyDep := make(map[command.ID]bool)
	for _, d := range spec.Deps {
		if !known[d.A] || !known[d.B] {
			return nil, fmt.Errorf("cdep: dep (%d,%d) references unknown command", d.A, d.B)
		}
		if d.SameKey && setOf(d.A) != setOf(d.B) {
			// Same-key invocations of A and B must hash their shared
			// key to a common destination; divergent sets would break
			// the C-G safety property.
			return nil, fmt.Errorf("cdep: same-key dep (%d,%d) with different worker sets %v and %v",
				d.A, d.B, setOf(d.A), setOf(d.B))
		}
		pk := orderedPair(d.A, d.B)
		if prev, ok := deps[pk]; ok && prev != d.SameKey {
			// A regardless-of-parameters dependency subsumes a same-key
			// one: keep the stronger.
			deps[pk] = false
		} else if !ok {
			deps[pk] = d.SameKey
		}
		if d.SameKey {
			if keys[d.A] == nil && keySets[d.A] == nil {
				return nil, fmt.Errorf("cdep: same-key dep (%d,%d) but command %d has no key extractor", d.A, d.B, d.A)
			}
			if keys[d.B] == nil && keySets[d.B] == nil {
				return nil, fmt.Errorf("cdep: same-key dep (%d,%d) but command %d has no key extractor", d.A, d.B, d.B)
			}
			hasKeyDep[d.A] = true
			hasKeyDep[d.B] = true
		}
	}

	// Classification. A non-SameKey dependency (A,B) requires
	// γ(A) ∩ γ(B) ≠ ∅ on every invocation pair, which we satisfy by
	// promoting one side of every such pair to Global (multicast to all
	// groups). Choosing which commands to promote is the paper's C-G
	// "optimization problem" (§IV-C); we solve it greedily: repeatedly
	// promote the command that participates in the most unsatisfied
	// always-conflict pairs, preferring non-keyed commands (a keyed
	// command's group follows from its key, so keeping it Keyed
	// preserves more concurrency). This reproduces both of the paper's
	// examples: set_state→all/get_state→random, and kvstore
	// insert/delete→all with read/update keyed.
	global := make(map[command.ID]bool)
	pairs := make([]pairKey, 0, len(deps))
	for pk, sameKey := range deps {
		if !sameKey {
			pairs = append(pairs, pk)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for {
		counts := make(map[command.ID]int)
		unsatisfied := 0
		for _, pk := range pairs {
			if global[pk.a] || global[pk.b] {
				continue
			}
			unsatisfied++
			counts[pk.a]++
			if pk.b != pk.a {
				counts[pk.b]++
			}
		}
		if unsatisfied == 0 {
			break
		}
		var (
			best      command.ID
			bestCount = -1
		)
		for _, c := range spec.Commands {
			n, ok := counts[c.ID]
			if !ok {
				continue
			}
			// Prefer higher coverage, then non-keyed, then lower id
			// (deterministic).
			better := n > bestCount ||
				(n == bestCount && hasKeyDep[best] && !hasKeyDep[c.ID])
			if better {
				best, bestCount = c.ID, n
			}
		}
		global[best] = true
	}

	classes := make(map[command.ID]Class, len(spec.Commands))
	for _, c := range spec.Commands {
		switch {
		case global[c.ID]:
			classes[c.ID] = Global
		case hasKeyDep[c.ID] && keySets[c.ID] != nil:
			classes[c.ID] = MultiKeyed
		case hasKeyDep[c.ID]:
			classes[c.ID] = Keyed
		default:
			classes[c.ID] = Independent
		}
	}

	// A placement pin routes every keyed invocation of its key to the
	// pinned group, so it must stay inside every keyed (and multi-key)
	// command's worker set — otherwise the pin would silently defeat the
	// WithWorkerSet restriction.
	for cmd, set := range o.workerSets {
		if classes[cmd] != Keyed && classes[cmd] != MultiKeyed {
			continue
		}
		for key, g := range o.placement {
			if !set.Has(g) {
				return nil, fmt.Errorf("cdep: placement of key %d to group %d outside command %d's worker set %v",
					key, g, cmd, set)
			}
		}
	}

	all := command.AllWorkers(k)
	return &Compiled{
		k:         k,
		classes:   classes,
		keys:      keys,
		keySets:   keySets,
		deps:      deps,
		placement: o.placement,
		routes:    compileRoutes(classes, deps, o.workerSets, all),
		all:       all,
	}, nil
}

// K returns the multiprogramming level the spec was compiled for.
func (c *Compiled) K() int { return c.k }

// Class returns the placement class of a command (0 for unknown ids).
func (c *Compiled) Class(cmd command.ID) Class { return c.classes[cmd] }

// GroupOfKey returns the group a key maps to, honouring placements.
func (c *Compiled) GroupOfKey(key uint64) int {
	if g, ok := c.placement[key]; ok {
		return g
	}
	return int(key % uint64(c.k))
}

// Groups is the C-G function (paper §IV-C): it maps a command invocation
// to its destination group set. It is driven by the compiled route
// table, so a WithWorkerSet restriction steers the client-side group
// choice exactly like it steers the index engine's placement: keyed
// commands hash their key over the route's worker set (a placement pin
// still wins), independent commands draw a random member of it. randN
// supplies randomness for Independent commands (called as randN(n)
// with n the size of the command's worker set); pass nil to pin them
// to the set's lowest member (useful for deterministic tests).
func (c *Compiled) Groups(cmd command.ID, input []byte, randN func(n int) int) command.Gamma {
	r, ok := c.routes[cmd]
	if !ok {
		// Unknown command: be safe, serialize.
		return c.all
	}
	switch r.Kind {
	case RouteKeyed:
		key, ok := c.keys[cmd](input)
		if !ok {
			// No key: the invocation potentially touches any object;
			// fall back to synchronous mode.
			return c.all
		}
		if g, ok := c.placement[key]; ok {
			return command.GammaOf(g)
		}
		return command.GammaOf(r.Workers.Member(key))
	case RouteMultiKey:
		keys, ok := c.KeySet(cmd, input)
		if !ok {
			// Undeterminable key set: synchronous mode.
			return c.all
		}
		// Union of the keys' groups: the multi-key γ. Each key maps
		// exactly where its single-key conflicts map (placement pin or
		// hash over the shared worker set), so every same-key dependent
		// invocation shares a group with this one.
		var gamma command.Gamma
		for _, key := range keys {
			if g, ok := c.placement[key]; ok {
				gamma |= command.GammaOf(g)
				continue
			}
			gamma |= command.GammaOf(r.Workers.Member(key))
		}
		return gamma
	case RouteFree:
		if randN == nil {
			return command.GammaOf(r.Workers.Min())
		}
		return command.GammaOf(r.Workers.Member(uint64(randN(r.Workers.Count()))))
	default:
		// Barrier: synchronous mode, every group.
		return c.all
	}
}

// Conflicts reports whether two concrete invocations depend on each
// other: they share a C-Dep entry, and — for same-key entries — their
// key sets intersect (single-key commands contribute singleton sets).
// This is the query the sP-SMR scheduler runs for every delivered
// command.
func (c *Compiled) Conflicts(cmdA command.ID, inputA []byte, cmdB command.ID, inputB []byte) bool {
	sameKey, ok := c.deps[orderedPair(cmdA, cmdB)]
	if !ok {
		return false
	}
	if !sameKey {
		return true
	}
	if c.keySets[cmdA] == nil && c.keySets[cmdB] == nil {
		// Single-key fast path: no set allocation per query.
		keyA, okA := c.keys[cmdA](inputA)
		keyB, okB := c.keys[cmdB](inputB)
		if !okA || !okB {
			return true // keyless: conservatively conflicting
		}
		return keyA == keyB
	}
	keysA, okA := c.KeySet(cmdA, inputA)
	keysB, okB := c.KeySet(cmdB, inputB)
	if !okA || !okB {
		// Keyless invocation of a keyed command: conservatively
		// conflicting.
		return true
	}
	// Both sets are sorted: linear intersection.
	i, j := 0, 0
	for i < len(keysA) && j < len(keysB) {
		switch {
		case keysA[i] == keysB[j]:
			return true
		case keysA[i] < keysB[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// GlobalConflict reports whether cmd conflicts with every command
// regardless of parameters (compiled class Global).
func (c *Compiled) GlobalConflict(cmd command.ID) bool {
	return c.classes[cmd] == Global
}

// Dep reports whether command types a and b carry a C-Dep entry, and
// whether that entry is same-key. Callers that cache canonical key
// sets (the optimistic reconciler checks one command against a whole
// speculation window) combine it with their cached sets instead of
// paying Conflicts' per-call key extraction.
func (c *Compiled) Dep(a, b command.ID) (dep, sameKey bool) {
	sameKey, dep = c.deps[orderedPair(a, b)]
	return dep, sameKey
}

// Key extracts the object key of an invocation using the command's key
// extractor. ok is false when the command has no extractor or the
// invocation carries no key.
func (c *Compiled) Key(cmd command.ID, input []byte) (key uint64, ok bool) {
	kf := c.keys[cmd]
	if kf == nil {
		return 0, false
	}
	return kf(input)
}

// KeySet extracts the canonical (sorted, deduplicated) key set of an
// invocation: the multi-key extractor's output for MultiKeyed commands,
// a singleton for single-key commands. ok is false when the command has
// no extractor of either kind or the invocation's keys cannot be
// determined — callers must then serialize the invocation (synchronous
// mode). The schedulers rely on the canonical order: the index engine
// enqueues a multi-key command on its owners in sorted-key order, so
// every replica visits shards identically.
func (c *Compiled) KeySet(cmd command.ID, input []byte) ([]uint64, bool) {
	return c.AppendKeySet(nil, cmd, input)
}

// AppendKeySet is KeySet into a caller-owned buffer: it appends the
// canonical (sorted, deduplicated) key set of the invocation to dst and
// returns the extended slice, allocating only when dst lacks capacity.
// This is the index engine's admission-path variant — tokens carry
// small inline key buffers, so steady-state multi-key admission reuses
// them instead of paying KeySet's per-call copy. On ok == false dst is
// returned unchanged (len(dst) is restored even if the extractor ran).
func (c *Compiled) AppendKeySet(dst []uint64, cmd command.ID, input []byte) ([]uint64, bool) {
	base := len(dst)
	if ksf := c.keySets[cmd]; ksf != nil {
		keys, ok := ksf(input)
		if !ok || len(keys) == 0 {
			return dst[:base], false
		}
		dst = append(dst, keys...)
		out := dst[base:]
		// Insertion sort + in-place dedup: key sets are small (2-4
		// keys), so this beats sort.Slice without its closure overhead.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		w := 1
		for i := 1; i < len(out); i++ {
			if out[i] != out[w-1] {
				out[w] = out[i]
				w++
			}
		}
		return dst[:base+w], true
	}
	if kf := c.keys[cmd]; kf != nil {
		key, ok := kf(input)
		if !ok {
			return dst[:base], false
		}
		return append(dst, key), true
	}
	return dst[:base], false
}
