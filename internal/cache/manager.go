package cache

import (
	"fmt"
	"sort"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// Config tunes the halo-strip cache subsystem. The zero value is usable:
// Normalize fills in defaults sized for the experiment cluster.
type Config struct {
	// BudgetBytes is each server's resident byte budget.
	BudgetBytes int64
	// MaxPinnedFrac bounds pinned bytes as a fraction of the budget so
	// the tuning loop cannot starve the adaptive part of the cache.
	MaxPinnedFrac float64
	// Policy names the eviction policy: "lru" (default) or "arc".
	Policy string
	// MaxPromotionsPerTick bounds how many strips one promote pass may pin
	// on one server, keeping the tuning loop incremental like DynamicCache's.
	MaxPromotionsPerTick int
}

// Normalize fills zero fields with defaults and validates the rest.
func (c Config) Normalize() (Config, error) {
	if c.BudgetBytes == 0 {
		c.BudgetBytes = 8 << 20 // 8 MiB per server
	}
	if c.BudgetBytes < 0 {
		return c, fmt.Errorf("cache: negative budget %d", c.BudgetBytes)
	}
	if c.MaxPinnedFrac == 0 {
		c.MaxPinnedFrac = 0.5
	}
	if c.MaxPinnedFrac < 0 || c.MaxPinnedFrac > 1 {
		return c, fmt.Errorf("cache: MaxPinnedFrac %v outside [0,1]", c.MaxPinnedFrac)
	}
	if c.MaxPromotionsPerTick == 0 {
		c.MaxPromotionsPerTick = 4
	}
	if _, err := NewPolicy(c.Policy, c.BudgetBytes); err != nil {
		return c, err
	}
	return c, nil
}

// Action is one replica-tuning decision, logged for reports and the
// determinism tests.
type Action struct {
	At     sim.Time
	Server int
	Kind   string // "promote" or "demote"
	File   string
	Strip  int64
}

func (a Action) String() string {
	return fmt.Sprintf("[%v] server %d %s %s strip %d", a.At, a.Server, a.Kind, a.File, a.Strip)
}

// Manager owns one ServerCache per storage server, the per-file heat the
// predictor and the restriper read, and the replica-tuning passes. It has
// no trigger of its own: pins move only when the p99 controller
// (internal/control) calls PromoteHotServer / DemoteIdleServer, so a
// cache without a controller caches but never pins.
type Manager struct {
	eng     *sim.Engine
	cfg     Config
	servers []*ServerCache
	agg     *metrics.Cache

	// per-file byte hit/miss windows feed HitRateEstimate for predict.
	fileHit  map[string]int64
	fileMiss map[string]int64
	// fileBand accounts intermediate halo-band bytes pipeline pushdowns
	// exchanged server-to-server on a file's behalf. Those bands never pass
	// through a ServerCache (they are transient per-stage state), but they
	// are dependence traffic all the same, so the heat ranking counts them.
	fileBand map[string]int64

	actions []Action
	// latSink, when set, receives every halo-fetch latency sample the
	// manager records — the controller's per-server tuning feed.
	latSink func(srv int, lat sim.Time)
}

// NewManager builds the subsystem: one cache per storage server. incFn
// reports a server's current incarnation (nil means "never restarts");
// agg is the cluster-wide counter collector (nil allocates a private one).
func NewManager(eng *sim.Engine, nServers int, cfg Config, incFn func(srv int) uint64, agg *metrics.Cache) (*Manager, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if agg == nil {
		agg = metrics.NewCache()
	}
	m := &Manager{
		eng:      eng,
		cfg:      cfg,
		agg:      agg,
		fileHit:  make(map[string]int64),
		fileMiss: make(map[string]int64),
		fileBand: make(map[string]int64),
	}
	maxPinned := int64(float64(cfg.BudgetBytes) * cfg.MaxPinnedFrac)
	for i := 0; i < nServers; i++ {
		i := i
		var fn func() uint64
		if incFn != nil {
			fn = func() uint64 { return incFn(i) }
		}
		pol, _ := NewPolicy(cfg.Policy, cfg.BudgetBytes) // validated by Normalize
		m.servers = append(m.servers, newServerCache(i, cfg.BudgetBytes, maxPinned, pol, fn, agg))
	}
	return m, nil
}

// Config returns the normalized configuration.
func (m *Manager) Config() Config { return m.cfg }

// Server returns the cache of storage server i, or nil out of range.
func (m *Manager) Server(i int) *ServerCache {
	if i < 0 || i >= len(m.servers) {
		return nil
	}
	return m.servers[i]
}

// NumServers returns the number of per-server caches.
func (m *Manager) NumServers() int { return len(m.servers) }

// Counters returns the cluster-wide counter collector.
func (m *Manager) Counters() *metrics.Cache { return m.agg }

// Get serves bytes [lo, hi) of a strip from server srv's cache. Hits are
// free on the DES clock: the data already sits in the server's memory, so
// the simulated cost is the in-memory copy the caller performs anyway.
func (m *Manager) Get(srv int, file string, strip, lo, hi int64) ([]byte, bool) {
	c := m.Server(srv)
	if c == nil {
		return nil, false
	}
	data, ok := c.Get(file, strip, lo, hi)
	if ok {
		m.fileHit[file] += hi - lo
	}
	return data, ok
}

// RecordFetch accounts a remote halo fetch server srv had to perform —
// a cache miss — and admits a copy of the fetched bytes. lat is the
// observed DES latency of the fetch, forwarded to the latency sink.
func (m *Manager) RecordFetch(srv int, file string, strip, lo int64, data []byte, lat sim.Time) {
	c := m.Server(srv)
	if c == nil {
		return
	}
	c.RecordMiss(int64(len(data)))
	m.fileMiss[file] += int64(len(data))
	c.Put(file, strip, lo, data)
	if m.latSink != nil {
		m.latSink(srv, lat)
	}
}

// InvalidateStrip drops every server's cached copy of a strip. The pfs
// write path calls this from storePut so a write anywhere kills stale
// halo copies everywhere.
func (m *Manager) InvalidateStrip(file string, strip int64) {
	for _, c := range m.servers {
		c.Invalidate(file, strip)
	}
}

// InvalidateFile drops every server's cached strips of a file.
func (m *Manager) InvalidateFile(file string) {
	for _, c := range m.servers {
		c.InvalidateFile(file)
	}
}

// HitRateEstimate returns the observed byte hit fraction for a file's
// halo fetches, 0 before any observation — the discount predict applies
// to dependent bytes in the cache-aware offload decision.
func (m *Manager) HitRateEstimate(file string) float64 {
	h, ms := m.fileHit[file], m.fileMiss[file]
	if h+ms == 0 {
		return 0
	}
	return float64(h) / float64(h+ms)
}

// FileMissBytes returns the dependent bytes a file's halo fetches moved
// over the interconnect (cache misses) so far — the observed-traffic
// signal the online restriper watches to decide a file is worth migrating.
func (m *Manager) FileMissBytes(file string) int64 { return m.fileMiss[file] }

// AddBandHeat accounts intermediate halo-band bytes a pipeline pushdown
// exchanged server-to-server while executing a DAG over the file. The
// bands hold transient stage output, so no cache entry is admitted, but
// the bytes join the file's heat so TopFiles and the restriper evidence
// see the dependence traffic a pipelined workload actually generates.
func (m *Manager) AddBandHeat(file string, bytes int64) {
	if bytes <= 0 {
		return
	}
	m.fileBand[file] += bytes
}

// FileBandBytes returns the intermediate band bytes recorded for a file.
func (m *Manager) FileBandBytes(file string) int64 { return m.fileBand[file] }

// FileHeat is one file's aggregate halo-fetch traffic through the cache,
// the per-file view multi-tenant reports rank files by.
type FileHeat struct {
	File      string `json:"file"`
	HitBytes  int64  `json:"hit_bytes"`
	MissBytes int64  `json:"miss_bytes"`
	// BandBytes is pipeline intermediate-band traffic attributed to the
	// file by AddBandHeat.
	BandBytes int64 `json:"band_bytes,omitempty"`
}

// TopFiles returns the n hottest files by total halo traffic (hit + miss
// + intermediate-band bytes), ties broken by file name — deterministic
// regardless of map iteration order. n <= 0 or n beyond the population
// returns everything.
func (m *Manager) TopFiles(n int) []FileHeat {
	names := make(map[string]bool, len(m.fileHit)+len(m.fileMiss))
	for f := range m.fileHit {
		names[f] = true
	}
	for f := range m.fileMiss {
		names[f] = true
	}
	for f := range m.fileBand {
		names[f] = true
	}
	out := make([]FileHeat, 0, len(names))
	for f := range names {
		out = append(out, FileHeat{File: f, HitBytes: m.fileHit[f], MissBytes: m.fileMiss[f], BandBytes: m.fileBand[f]})
	}
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].HitBytes + out[i].MissBytes + out[i].BandBytes
		tj := out[j].HitBytes + out[j].MissBytes + out[j].BandBytes
		if ti != tj {
			return ti > tj
		}
		return out[i].File < out[j].File
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Actions returns the replica-tuning log in decision order.
func (m *Manager) Actions() []Action { return m.actions }

// Stats returns per-server snapshots in server order.
func (m *Manager) Stats() []Stats {
	out := make([]Stats, 0, len(m.servers))
	for _, c := range m.servers {
		out = append(out, c.Snapshot())
	}
	return out
}

// --- Controller interface --------------------------------------------
//
// The p99 controller (internal/control) owns the tuning trigger: it keeps
// quantile sketches over the latency samples forwarded by SetLatencySink
// and calls the promote/demote entry points below when a percentile
// threshold with hysteresis says so. The manager stays the owner of the
// caches, the pin budget, the candidate ordering, and the action log.

// SetLatencySink registers a listener for every halo-fetch latency sample
// (nil disables). Called from RecordFetch with the fetching server.
func (m *Manager) SetLatencySink(fn func(srv int, lat sim.Time)) { m.latSink = fn }

// PromoteHotServer runs one promote pass on server srv and returns how
// many strips it pinned, bounded by MaxPromotionsPerTick and the pin
// budget. Candidates are the unpinned strips re-hit this window in (hits
// desc, file asc, strip asc) order, then the strips (re)fetched this
// window in (fetches desc, file asc, strip asc) order. The controller's
// percentile trigger has already attributed the window's tail to this
// server, so the just-fetched strips are precisely the ones whose next
// access repeats the slow fetch: pinning them is how a cold, thrashing
// cache bootstraps — under a cyclic access pattern wider than the budget
// no entry ever survives to be re-hit, and a hits-only candidate set
// could never act.
func (m *Manager) PromoteHotServer(srv int) int {
	c := m.Server(srv)
	if c == nil {
		return 0
	}
	c.checkIncarnation()
	type cand struct {
		k       Key
		fetched bool // ranks behind every re-hit candidate
		count   int64
	}
	var cands []cand
	for k, e := range c.entries {
		switch {
		case e.pinned:
		case e.winHits > 0:
			cands = append(cands, cand{k, false, e.winHits})
		case e.winFetch > 0:
			cands = append(cands, cand{k, true, e.winFetch})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.fetched != b.fetched {
			return !a.fetched
		}
		if a.count != b.count {
			return a.count > b.count
		}
		if a.k.File != b.k.File {
			return a.k.File < b.k.File
		}
		return a.k.Strip < b.k.Strip
	})
	n := 0
	for _, cd := range cands {
		if n >= m.cfg.MaxPromotionsPerTick {
			break
		}
		if c.Pin(cd.k.File, cd.k.Strip) {
			m.actions = append(m.actions, Action{At: m.eng.Now(), Server: c.srv, Kind: "promote", File: cd.k.File, Strip: cd.k.Strip})
			n++
		}
	}
	return n
}

// DemoteIdleServer runs one demote pass on server srv — unpin its pinned
// strips that saw no hits this window, in (file asc, strip asc) order —
// and returns how many strips it unpinned.
func (m *Manager) DemoteIdleServer(srv int) int {
	c := m.Server(srv)
	if c == nil {
		return 0
	}
	c.checkIncarnation()
	var keys []Key
	for k, e := range c.entries {
		if e.pinned && e.winHits == 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].File != keys[j].File {
			return keys[i].File < keys[j].File
		}
		return keys[i].Strip < keys[j].Strip
	})
	n := 0
	for _, k := range keys {
		if c.Unpin(k.File, k.Strip) {
			m.actions = append(m.actions, Action{At: m.eng.Now(), Server: c.srv, Kind: "demote", File: k.File, Strip: k.Strip})
			n++
		}
	}
	return n
}

// WindowHits returns how many cache hits server srv served since the last
// window reset — the controller's idle-pin signal for windows with no
// fetches at all.
func (m *Manager) WindowHits(srv int) int64 {
	c := m.Server(srv)
	if c == nil {
		return 0
	}
	return c.winHits
}

// ResetWindows closes the current sampling window on every server: it
// applies pending incarnation purges and clears the per-server hit
// counters and per-entry hit/fetch windows. The controller calls it at the
// end of each tuning tick.
func (m *Manager) ResetWindows() {
	for _, c := range m.servers {
		c.checkIncarnation()
		c.winHits = 0
		for _, e := range c.entries {
			e.winHits, e.winFetch = 0, 0
		}
	}
}
