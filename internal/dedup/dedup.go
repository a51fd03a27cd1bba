// Package dedup provides the per-client at-most-once table shared by
// every replica engine: it caches the responses of recently executed
// requests so a retransmitted request (same client id and sequence
// number) is answered from the cache instead of re-executed.
package dedup

// Table caches responses keyed by (client, seq). Entries are evicted
// per client once a client's cache exceeds the window: lowest sequence
// numbers first, since clients allocate sequence numbers monotonically
// and only retransmit requests within their outstanding window.
//
// A Table is confined to a single goroutine (one worker or one
// scheduler); it performs no locking.
type Table struct {
	window  int
	clients map[uint64]*clientCache
}

type clientCache struct {
	responses map[uint64][]byte
	minSeq    uint64 // smallest seq possibly present
}

// NewTable creates a table retaining about window responses per client.
func NewTable(window int) *Table {
	if window < 2 {
		window = 2
	}
	return &Table{
		window:  window,
		clients: make(map[uint64]*clientCache),
	}
}

// Lookup returns the cached response for (client, seq) if the request
// was already executed through this table.
func (t *Table) Lookup(client, seq uint64) (output []byte, duplicate bool) {
	c, ok := t.clients[client]
	if !ok {
		return nil, false
	}
	output, duplicate = c.responses[seq]
	return output, duplicate
}

// Seen reports whether (client, seq) already went through this table:
// its response is cached, or seq lies below the client's eviction floor
// — executed and evicted, or older than anything a correct client can
// still have outstanding. Lookup misses the latter; a caller for which
// executing such a request again is wasted work (speculation on a stream
// that lags the decided order) asks Seen instead.
func (t *Table) Seen(client, seq uint64) bool {
	c, ok := t.clients[client]
	if !ok {
		return false
	}
	_, cached := c.responses[seq]
	return cached || seq < c.minSeq
}

// Record stores the response of a just-executed request and evicts old
// entries beyond the window.
func (t *Table) Record(client, seq uint64, output []byte) {
	c, ok := t.clients[client]
	if !ok {
		c = &clientCache{responses: make(map[uint64][]byte, 8), minSeq: seq}
		t.clients[client] = c
	}
	c.responses[seq] = output
	if len(c.responses) <= t.window {
		return
	}
	// Evict roughly the oldest half by advancing minSeq; sequence
	// numbers below the new floor can no longer be retransmitted by a
	// correct client. The scan bound is fixed up front (the loop
	// advances minSeq, so a bound recomputed from it would never bind
	// and sparse maps would trigger unbounded scans).
	target := len(c.responses) - t.window/2
	limit := c.minSeq + uint64(4*t.window)
	for seq := c.minSeq; target > 0 && seq <= limit; seq++ {
		if _, ok := c.responses[seq]; ok {
			delete(c.responses, seq)
			target--
		}
		c.minSeq = seq + 1
	}
	if target > 0 {
		// Sparse sequence numbers (client jumped): rebuild keeping the
		// highest entries.
		max := uint64(0)
		for s := range c.responses {
			if s > max {
				max = s
			}
		}
		floor := uint64(0)
		if max > uint64(t.window/2) {
			floor = max - uint64(t.window/2)
		}
		for s := range c.responses {
			if s < floor {
				delete(c.responses, s)
			}
		}
		c.minSeq = floor
	}
}
