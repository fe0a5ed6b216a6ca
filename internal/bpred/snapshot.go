package bpred

import "fmt"

// Snapshot is the serializable state of a Predictor. Table contents are
// packed into byte slices (JSON base64) rather than per-entry objects:
// the default budget is ~8 K entries and a numeric-array encoding would
// dominate checkpoint size.
type Snapshot struct {
	// Bimodal holds one byte per bimodal counter (int8 bit pattern).
	Bimodal []byte `json:"bimodal"`
	// Tables holds one packed table per history length: 4 bytes per entry
	// (ctr int8, useful, tag little-endian uint16).
	Tables      [][]byte `json:"tables"`
	GHist       uint64   `json:"ghist"`
	AllocFail   int      `json:"alloc_fail"`
	Lookups     uint64   `json:"lookups"`
	Mispredicts uint64   `json:"mispredicts"`
}

// Snapshot captures the predictor's full training state and stats.
func (p *Predictor) Snapshot() Snapshot {
	s := Snapshot{
		Bimodal:     make([]byte, len(p.bimodal)),
		Tables:      make([][]byte, len(p.tab)),
		GHist:       p.ghist,
		AllocFail:   p.allocFail,
		Lookups:     p.Lookups,
		Mispredicts: p.Mispredicts,
	}
	for i, c := range p.bimodal {
		s.Bimodal[i] = byte(c)
	}
	for t := range s.Tables {
		tab := p.table(t)
		b := make([]byte, 4*len(tab))
		for i, e := range tab {
			b[4*i] = byte(e.ctr)
			b[4*i+1] = e.useful
			b[4*i+2] = byte(e.tag)
			b[4*i+3] = byte(e.tag >> 8)
		}
		s.Tables[t] = b
	}
	return s
}

// Restore overwrites the predictor's state from s. The predictor must have
// been constructed with the same Config the snapshot was taken under;
// shape mismatches return an error and leave the predictor unspecified.
func (p *Predictor) Restore(s Snapshot) error {
	if len(s.Bimodal) != len(p.bimodal) {
		return fmt.Errorf("bpred: snapshot bimodal size %d, predictor has %d", len(s.Bimodal), len(p.bimodal))
	}
	if len(s.Tables) != len(p.tab) {
		return fmt.Errorf("bpred: snapshot has %d tagged tables, predictor has %d", len(s.Tables), len(p.tab))
	}
	for t := range s.Tables {
		if len(s.Tables[t]) != 4*len(p.table(t)) {
			return fmt.Errorf("bpred: snapshot table %d is %d bytes, want %d", t, len(s.Tables[t]), 4*len(p.table(t)))
		}
	}
	for i, b := range s.Bimodal {
		p.bimodal[i] = int8(b)
	}
	for t, b := range s.Tables {
		tab := p.table(t)
		for i := range tab {
			tab[i] = taggedEntry{
				ctr:    int8(b[4*i]),
				useful: b[4*i+1],
				tag:    uint16(b[4*i+2]) | uint16(b[4*i+3])<<8,
			}
		}
	}
	p.ghist = s.GHist
	p.refold()
	p.allocFail = s.AllocFail
	p.Lookups = s.Lookups
	p.Mispredicts = s.Mispredicts
	return nil
}

// table returns tagged table t's entries.
func (p *Predictor) table(t int) []taggedEntry {
	n := 1 << p.cfg.TableBits
	return p.tables[t*n : (t+1)*n]
}
