package cdep

import (
	"fmt"

	"github.com/psmr/psmr/internal/command"
)

// RouteKind is the compiled admission decision the index-based early
// scheduler applies to a command, following "Early Scheduling in
// Parallel State Machine Replication" (Alchieri et al.): the mapping
// from command classes to worker sets is computed once at compile time,
// so delivering a command costs O(1) instead of a scan over the live
// command set.
type RouteKind int

// Route kinds.
const (
	// RouteKeyed commands serialize only against same-key commands:
	// they are appended to the queue of the worker currently owning
	// their key (per-key conflict index), or of any worker when the key
	// has no live commands.
	RouteKeyed RouteKind = iota + 1
	// RouteFree commands conflict with nothing that is not itself a
	// barrier: they may be appended to any worker's queue.
	RouteFree
	// RouteBarrier commands conflict with commands whose placement
	// cannot be predicted: every worker must rendezvous before they
	// execute, and no later command may start before they finish.
	RouteBarrier
	// RouteMultiKey commands serialize against same-key commands over a
	// key SET: one token is enqueued on every worker owning one of
	// their keys' conflict chains (keys claimed in sorted order — a
	// 2PL-style lock point). The index engine's discipline is
	// deposit-and-continue: each owner marks its arrival and keeps
	// draining unrelated queued work, and the LAST depositor executes,
	// so unlike RouteBarrier no worker stalls on the token at all;
	// same-key successors wait on the token's completion gates
	// instead.
	RouteMultiKey
)

func (k RouteKind) String() string {
	switch k {
	case RouteKeyed:
		return "keyed"
	case RouteFree:
		return "free"
	case RouteBarrier:
		return "barrier"
	case RouteMultiKey:
		return "multikey"
	default:
		return fmt.Sprintf("RouteKind(%d)", int(k))
	}
}

// Route is the compiled class-to-worker-set assignment of one command
// type: how the early scheduler routes it and the set of workers an
// invocation may land on.
type Route struct {
	Kind RouteKind
	// Workers is the worker set invocations of the command may be
	// dispatched to. RouteKeyed commands go to the worker owning their
	// key's live conflict chain, else to a placement pin
	// (PlacedWorker), else to the least-loaded member of this set;
	// RouteFree commands go to the least-loaded member; RouteBarrier
	// commands rendezvous every worker and the set's minimum index
	// executes. The set defaults to all workers; WithWorkerSet
	// restricts it per command, and the client-side C-G (Groups)
	// honours the restriction too.
	Workers command.Gamma
	// ReadOnly marks a RouteKeyed or RouteMultiKey command class whose
	// invocations may execute concurrently with each other: the command
	// has no self-dependency in C-Dep AND every same-key conflict
	// partner self-conflicts (is a writer class). The second condition
	// demotes mutually-conflicting "reader" pairs — two commands with a
	// same-key dep but no self-deps — to writers, so the declared
	// conflict still serializes them. Both engines consume this bit:
	// the index engine's per-key reader sets and the scan engine's
	// reader tracking let ReadOnly invocations run concurrently behind
	// the keys' last writers. A read-only RouteMultiKey command latches
	// EVERY key in its set's reader group instead of rendezvousing the
	// owners, so a snapshot read never parks a worker.
	ReadOnly bool
}

// Route returns the early-scheduling assignment of cmd. Unknown
// commands conservatively route as barriers.
func (c *Compiled) Route(cmd command.ID) Route {
	if r, ok := c.routes[cmd]; ok {
		return r
	}
	return Route{Kind: RouteBarrier, Workers: c.all}
}

// PlacedWorker reports the worker a key was explicitly pinned to with
// WithPlacement, if any — the paper's §IV-D load-balancing hint,
// honoured by the early scheduler when the key has no live commands.
func (c *Compiled) PlacedWorker(key uint64) (worker int, ok bool) {
	g, ok := c.placement[key]
	return g, ok
}

// compileRoutes derives the class-to-worker-set table from the
// classification. It runs at Compile time (early scheduling): admission
// never consults the dependency specification again.
func compileRoutes(classes map[command.ID]Class, deps map[pairKey]bool,
	workerSets map[command.ID]command.Gamma, all command.Gamma) map[command.ID]Route {
	selfDep := func(id command.ID) bool {
		_, ok := deps[orderedPair(id, id)]
		return ok
	}
	// A keyed command is read-only when its invocations never conflict
	// with each other (no self-dep) and every same-key partner is a
	// writer (has a self-dep). Without the second condition, two
	// commands declared mutually conflicting but individually
	// non-self-conflicting would land in one reader set and overlap
	// despite the declared dependency.
	readOnly := func(id command.ID) bool {
		if selfDep(id) {
			return false
		}
		for pk, sameKey := range deps {
			if !sameKey {
				continue
			}
			var other command.ID
			switch id {
			case pk.a:
				other = pk.b
			case pk.b:
				other = pk.a
			default:
				continue
			}
			if !selfDep(other) {
				return false
			}
		}
		return true
	}
	routes := make(map[command.ID]Route, len(classes))
	for id, class := range classes {
		set := all
		if ws, ok := workerSets[id]; ok {
			set = ws
		}
		switch class {
		case Global:
			routes[id] = Route{Kind: RouteBarrier, Workers: set}
		case Keyed:
			routes[id] = Route{Kind: RouteKeyed, Workers: set, ReadOnly: readOnly(id)}
		case MultiKeyed:
			// Read-only multi-key commands (snapshot reads over a key
			// set) carry the ReadOnly bit: the engines latch each key's
			// reader set instead of pinning every owner with a rendezvous
			// token. Writers keep the exclusive 2PL-style hold.
			routes[id] = Route{Kind: RouteMultiKey, Workers: set, ReadOnly: readOnly(id)}
		default:
			routes[id] = Route{Kind: RouteFree, Workers: set}
		}
	}
	return routes
}
