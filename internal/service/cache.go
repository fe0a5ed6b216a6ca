package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"dvr/internal/cpu"
	"dvr/internal/faults"
	"dvr/internal/sealed"
	"dvr/internal/service/api"
	"dvr/internal/workloads"
)

// CacheKey returns the content address of one simulation cell: the SHA-256
// of the canonical JSON of (engine version, workload ref, technique, full
// core config). Everything that can change the canonical Result is in the
// key; nothing else is (see DESIGN.md, "dvrd cache key"). Two requests
// with the same key are the same job, whichever client sent them.
func CacheKey(ref workloads.Ref, tech string, cfg cpu.Config) string {
	payload := struct {
		Engine    string        `json:"engine"`
		Workload  workloads.Ref `json:"workload"`
		Technique string        `json:"technique"`
		Config    cpu.Config    `json:"config"`
	}{api.EngineVersion, ref, tech, cfg}
	sum := sha256.Sum256(mustJSON(payload))
	return hex.EncodeToString(sum[:])
}

// simConfig is what every cell of one request shares: the core config and
// the part of every content address under it that does not depend on the
// cell, marshalled once. Marshalling the config is most of what an address
// costs, and a request's cells all hash the same one: addressed through
// CacheKey, a /v1/sim hit takes 13.9 us instead of 12.2 and a 78-cell
// batch of hits 0.40 ms instead of 0.30 (BenchmarkSimHit,
// BenchmarkBatchHit78).
type simConfig struct {
	cpu cpu.Config
	// keyTail closes the hashed payload after its technique:
	// ,"config":{...}}
	keyTail []byte
}

// newSimConfig resolves a request's config override against the default.
// An override that fails validation is a 400, refused once per request
// before any of its cells is resolved.
func newSimConfig(override *cpu.Config) (simConfig, error) {
	if override == nil {
		return simConfig{cpu: cpu.DefaultConfig(), keyTail: defaultKeyTail()}, nil
	}
	if err := override.Validate(); err != nil {
		return simConfig{}, badRequest(err)
	}
	return simConfig{cpu: *override, keyTail: keyTail(*override)}, nil
}

// defaultKeyTail is the tail of the request every client sends most: the
// default config.
var defaultKeyTail = sync.OnceValue(func() []byte { return keyTail(cpu.DefaultConfig()) })

func keyTail(cfg cpu.Config) []byte {
	return append(append([]byte(`,"config":`), mustJSON(cfg)...), '}')
}

// keyHead opens the hashed payload: {"engine":"...","workload":
var keyHead = append(append([]byte(`{"engine":`), mustJSON(api.EngineVersion)...), `,"workload":`...)

// key is CacheKey(ref, tech, sc.cpu): the compact JSON of that payload
// written field by field around the request's keyTail
// (TestCacheKeyMatchesMarshalledPayload holds the two together).
func (sc simConfig) key(ref workloads.Ref, tech string) string {
	buf := make([]byte, 0, 1024)
	buf = append(append(buf, keyHead...), mustJSON(ref)...)
	buf = append(append(buf, `,"technique":`...), mustJSON(tech)...)
	buf = append(buf, sc.keyTail...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// mustJSON marshals plain data, which cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// spillCache is a bounded in-memory LRU of values keyed by content address
// with an optional disk spill: entries evicted from (or missing in) memory
// are read back from <dir>/<key>.json when a directory is configured, so
// a restarted server keeps its history. One instance holds canonical
// results, another the per-cell interval traces. A spill file is the
// value's sealed JSON in a sealed.Store; disk I/O is best-effort, so a
// corrupt or unwritable spill (torn writes, bit rot, a failing disk)
// degrades to a miss and a re-simulation, never to an error or a wrong
// figure.
type spillCache[V any] struct {
	mu    sync.Mutex
	mem   *lru[V]
	disk  *sealed.Store  // nil: memory only
	check func(*V) error // optional: refuses an intact value as sealed.ErrSkew
	// prepare, optional, completes a value on its way into memory (from Put
	// or a spill re-read) with whatever is derived from it and not spilled.
	// It runs outside mu.
	prepare func(key string, v *V)
}

func newSpillCache[V any](capacity int, dir string, fsys faults.FS, check func(*V) error) *spillCache[V] {
	c := &spillCache[V]{mem: newLRU[V](capacity), check: check}
	if dir != "" {
		// A directory that cannot be opened disables the spill, not the server.
		c.disk, _ = sealed.Open(dir, ".json", fsys)
	}
	return c
}

func (c *spillCache[V]) decode(data []byte) (v V, err error) {
	payload, err := sealed.Unseal(data)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		return v, fmt.Errorf("%w: %v", sealed.ErrCorrupt, err)
	}
	if c.check != nil {
		err = c.check(&v)
	}
	return v, err
}

// Get returns the value stored under key, consulting memory then the
// disk spill. A disk hit is re-admitted to memory.
func (c *spillCache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	v, ok = c.mem.get(key)
	c.mu.Unlock()
	if ok || c.disk == nil {
		return v, ok
	}
	err := c.disk.Get(key, func(data []byte) (derr error) {
		v, derr = c.decode(data)
		return derr
	})
	if err != nil {
		var zero V
		return zero, false
	}
	return c.admit(key, v), true
}

// Put stores a value under key, in memory and (best-effort) on disk.
func (c *spillCache[V]) Put(key string, v V) {
	v = c.admit(key, v)
	if c.disk == nil {
		return
	}
	if data, err := json.Marshal(v); err == nil {
		_ = c.disk.Put(key, sealed.Seal(data))
	}
}

// admit prepares v, stores it in memory and returns it as stored.
func (c *spillCache[V]) admit(key string, v V) V {
	if c.prepare != nil {
		c.prepare(key, &v)
	}
	c.mu.Lock()
	c.mem.put(key, v)
	c.mu.Unlock()
	return v
}

// Len returns the number of in-memory entries.
func (c *spillCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem.items)
}

// Quarantined counts the spill entries quarantined (startup scan + reads).
func (c *spillCache[V]) Quarantined() uint64 {
	if c.disk == nil {
		return 0
	}
	return c.disk.Quarantined()
}

// cachedResult is one in-memory result-cache entry: the canonical Result
// and the body a /v1/sim cache hit of it is answered with, the indented
// api.SimResponse{key, cached: true, result} exactly as writeJSON would
// encode it. The body is built once, when the entry enters memory, and
// leaves with it; on disk an entry is the Result's JSON alone.
type cachedResult struct {
	cpu.Result
	body []byte
}

func (e cachedResult) MarshalJSON() ([]byte, error) { return json.Marshal(e.Result) }

func (e *cachedResult) UnmarshalJSON(data []byte) error { return json.Unmarshal(data, &e.Result) }

// resultCache is the spillCache of canonical Results plus the lookup
// accounting /metrics reports.
type resultCache struct {
	*spillCache[cachedResult]

	// hits/misses live under mu (not as atomics) so a /metrics snapshot
	// reads a consistent pair: hits+misses always equals the lookups
	// completed at snapshot time, never a torn in-between.
	hits   uint64
	misses uint64

	health sealed.Health // the startup scan, logged by dvrd at boot
}

func newResultCache(capacity int, dir string, fsys faults.FS) *resultCache {
	// An intact entry from another result schema (the key should have
	// prevented it) can never become readable by this build: it is
	// dropped as skew rather than re-read on every lookup of its key.
	check := func(e *cachedResult) error {
		if e.SchemaVersion != cpu.ResultSchemaVersion {
			return fmt.Errorf("service: spill entry has result schema %d: %w", e.SchemaVersion, sealed.ErrSkew)
		}
		return nil
	}
	c := &resultCache{spillCache: newSpillCache(capacity, dir, fsys, check)}
	c.prepare = func(key string, e *cachedResult) {
		var body bytes.Buffer
		// A Result is plain data: the encoder cannot fail on it.
		if err := encodeJSON(&body, api.SimResponse{Key: key, Cached: true, Result: e.Result}); err != nil {
			panic(err)
		}
		e.body = body.Bytes()
	}
	if c.disk != nil {
		c.health = c.disk.Scan(func(_ string, data []byte) error {
			_, err := c.decode(data)
			return err
		})
	}
	return c
}

// Get is the lookup a request is accounted by: one hit or one miss.
func (c *resultCache) Get(key string) (cachedResult, bool) {
	e, ok := c.spillCache.Get(key)
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return e, ok
}

// Put admits a canonical result under its content address.
func (c *resultCache) Put(key string, res cpu.Result) {
	c.spillCache.Put(key, cachedResult{Result: res})
}

// Peek is Get without the accounting — for internal re-checks (e.g. under
// a single-flight) of a request its first Get already counted.
func (c *resultCache) Peek(key string) (cpu.Result, bool) {
	e, ok := c.spillCache.Get(key)
	return e.Result, ok
}

// counters snapshots (hits, misses) as one consistent pair.
func (c *resultCache) counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
