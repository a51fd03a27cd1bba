package workload

import (
	"math/rand"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
)

// Op is one generated command invocation.
type Op struct {
	Cmd   command.ID
	Input []byte
}

// Generator produces a stream of operations. Generators are shared
// across goroutines and must be stateless apart from the caller's rng.
type Generator interface {
	Next(rng *rand.Rand) Op
}

// MixEntry weights one operation maker inside a Mix.
type MixEntry struct {
	// Weight is the entry's relative frequency (parts per total).
	Weight int
	// Make builds one operation.
	Make func(rng *rand.Rand) Op
}

// Mix is a weighted mixture of operation makers.
type Mix struct {
	entries []MixEntry
	total   int
}

// NewMix builds a mixture; entries with non-positive weight are
// dropped.
func NewMix(entries ...MixEntry) *Mix {
	m := &Mix{}
	for _, e := range entries {
		if e.Weight > 0 {
			m.entries = append(m.entries, e)
			m.total += e.Weight
		}
	}
	return m
}

// Next implements Generator.
func (m *Mix) Next(rng *rand.Rand) Op {
	pick := rng.Intn(m.total)
	for _, e := range m.entries {
		pick -= e.Weight
		if pick < 0 {
			return e.Make(rng)
		}
	}
	return m.entries[len(m.entries)-1].Make(rng)
}

// KVReads generates read commands with the given key distribution.
func KVReads(keys KeyGen) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		return Op{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(keys.Key(rng))}
	})
}

// KVUpdates generates update commands with 8-byte values.
func KVUpdates(keys KeyGen) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		value := make([]byte, 8)
		rng.Read(value)
		return Op{Cmd: kvstore.CmdUpdate, Input: kvstore.EncodeKeyValue(keys.Key(rng), value)}
	})
}

// KVTransfers generates two-key transfer commands between distinct
// keys (the multi-key workload).
func KVTransfers(keys KeyGen) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		from := keys.Key(rng)
		to := keys.Key(rng)
		if to == from {
			to = keys.Key(rng) // one redraw keeps self-transfers rare
		}
		return Op{Cmd: kvstore.CmdTransfer, Input: kvstore.EncodeTransfer(from, to, uint64(rng.Intn(100)))}
	})
}

// KVCollisionMix generates the optimistic-execution workload:
// collisionPct percent of operations are two-key transfers over a
// small hot key set (heavily conflicting — exactly the commands whose
// speculative order matters), the rest are reads over the full key
// space (conflict-free). At 0% the workload carries no conflicting
// pairs at all, so a speculation can never be contradicted and the
// optimistic hit rate measures pure stream fidelity.
func KVCollisionMix(keys KeyGen, collisionPct float64) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		if rng.Float64()*100 < collisionPct {
			const hot = 16
			from := rng.Uint64() % hot
			to := rng.Uint64() % hot
			if to == from {
				to = (to + 1) % hot
			}
			return Op{Cmd: kvstore.CmdTransfer, Input: kvstore.EncodeTransfer(from, to, uint64(rng.Intn(3)))}
		}
		return Op{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(keys.Key(rng))}
	})
}

type genFunc func(rng *rand.Rand) Op

func (f genFunc) Next(rng *rand.Rand) Op { return f(rng) }
