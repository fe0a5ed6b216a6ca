package service

import (
	"sync"

	"dvr/internal/cluster"
)

// Bounded-load routing: consistent hashing with bounded loads (Mirrokni,
// Thorup & Zadimoghaddam, SODA 2018). A cell goes to the first up replica
// in its ring order that, with this cell, holds no more than
// ⌈c × (cells in flight + 1) / up replicas⌉ of the frontend's cells in
// flight; a replica over that bound moves behind the other up replicas.
// Owner routing alone leaves one worker idle while the other still has
// cells queued whenever a batch's keys hash unevenly, and a 6-cell job
// often does. c = 5/4 is the paper's constant: close enough to 1 that no
// worker queues more than a quarter above the mean, loose enough that a
// cell leaves its owner only when the imbalance is real (an idle frontend
// sends a lone cell to its owner: the bound is then 1). A key already in
// flight goes to the replica running it, bound or not, so that worker's
// single-flight still collapses the duplicate.

// loadNum/loadDen is c.
const loadNum, loadDen = 5, 4

// Candidate ranks, in the order candidates lists replicas. Within a rank
// the ring order holds.
const (
	rankPinned   = iota // up and already running this key
	rankUnder           // up and within the bound with this cell
	rankOver            // up but over the bound with this cell
	rankDraining        // answers, but should get no new work
	rankDead            // still worth one try when nothing better exists
	numRanks
)

// inflight counts the frontend's cells in flight: in all, per replica, and
// per key with the replica that took it last. Each frontend counts only
// its own cells, so with several frontends each bounds its own share.
type inflight struct {
	mu    sync.Mutex
	total int
	load  map[string]int
	keys  map[string]keyPin
}

// keyPin is where a key runs: the replica of its latest placement, and how
// many of its placements are still in flight.
type keyPin struct {
	rep string
	n   int
}

func newInflight() *inflight {
	return &inflight{load: make(map[string]int), keys: make(map[string]keyPin)}
}

// add counts one cell of key as in flight on rep.
func (l *inflight) add(key, rep string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.load[rep]++
	p := l.keys[key]
	l.keys[key] = keyPin{rep: rep, n: p.n + 1}
}

// done releases one cell of key that add counted on rep.
func (l *inflight) done(key, rep string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total--
	if l.load[rep]--; l.load[rep] == 0 {
		delete(l.load, rep)
	}
	if p := l.keys[key]; p.n > 1 {
		l.keys[key] = keyPin{rep: p.rep, n: p.n - 1}
	} else {
		delete(l.keys, key)
	}
}

// rank ranks each replica of pref (with its probed state) for one more
// cell of key; up is how many of pref are up.
func (l *inflight) rank(key string, pref []string, states []cluster.State, up int) []int {
	ranks := make([]int, len(pref))
	l.mu.Lock()
	defer l.mu.Unlock()
	pin := l.keys[key].rep
	bound := 0
	if up > 0 {
		bound = (loadNum*(l.total+1) + loadDen*up - 1) / (loadDen * up)
	}
	for i, rep := range pref {
		switch {
		case states[i] == cluster.StateDead:
			ranks[i] = rankDead
		case states[i] == cluster.StateDraining:
			ranks[i] = rankDraining
		case rep == pin:
			ranks[i] = rankPinned
		case l.load[rep]+1 > bound:
			ranks[i] = rankOver
		default:
			ranks[i] = rankUnder
		}
	}
	return ranks
}
