package cache

import (
	"testing"

	"github.com/hpcio/das/internal/sim"
)

func testConfig() Config {
	return Config{
		BudgetBytes:          1024,
		MaxPromotionsPerTick: 2,
	}
}

func TestConfigNormalizeDefaultsAndErrors(t *testing.T) {
	cfg, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BudgetBytes <= 0 || cfg.MaxPinnedFrac <= 0 || cfg.MaxPromotionsPerTick <= 0 {
		t.Errorf("bad defaults: %+v", cfg)
	}
	for _, bad := range []Config{
		{BudgetBytes: -1},
		{MaxPinnedFrac: 1.5},
		{Policy: "fifo"},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestManagerPromotesHotStripsOnSlowFetches(t *testing.T) {
	m, err := NewManager(sim.NewEngine(), 2, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	// Server 0 pays slow fetches for three strips, then hits two of them —
	// strip 2 twice, strip 1 once — and the controller calls a promote pass.
	for s := int64(1); s <= 3; s++ {
		m.RecordFetch(0, "f", s, 0, buf, 200*sim.Microsecond)
	}
	for _, s := range []int64{2, 2, 1} {
		if _, ok := m.Get(0, "f", s, 0, 64); !ok {
			t.Errorf("warm lookup for strip %d missed", s)
		}
	}
	if n := m.PromoteHotServer(0); n != 2 {
		t.Fatalf("PromoteHotServer = %d, want 2", n)
	}
	acts := m.Actions()
	if len(acts) != 2 {
		t.Fatalf("actions = %v, want 2 promotions", acts)
	}
	// MaxPromotionsPerTick = 2: the two hottest strips, hit-count order.
	if acts[0].Kind != "promote" || acts[0].Strip != 2 {
		t.Errorf("first action %v, want promote strip 2", acts[0])
	}
	if acts[1].Kind != "promote" || acts[1].Strip != 1 {
		t.Errorf("second action %v, want promote strip 1", acts[1])
	}
	if !m.Server(0).Pinned("f", 2) || !m.Server(0).Pinned("f", 1) {
		t.Error("promoted strips not pinned")
	}
	if m.Server(0).Pinned("f", 3) {
		t.Error("cold strip pinned past the per-pass bound")
	}
	if m.Server(1).UsedBytes() != 0 || m.PromoteHotServer(1) != 0 {
		t.Error("idle server's cache touched")
	}
}

// TestManagerPromoteCandidateOrder pins the promote pass's full ranking:
// re-hit strips by (hits desc, file asc, strip asc), then the strips the
// window only fetched — the bootstrap candidates — by (file asc, strip
// asc), MaxPromotionsPerTick at a time.
func TestManagerPromoteCandidateOrder(t *testing.T) {
	m, err := NewManager(sim.NewEngine(), 1, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, k := range []Key{{"g", 1}, {"f", 5}, {"f", 4}, {"f", 3}, {"e", 7}} {
		m.RecordFetch(0, k.File, k.Strip, 0, buf, sim.Millisecond)
	}
	for _, k := range []Key{{"g", 1}, {"f", 3}, {"f", 5}, {"g", 1}, {"f", 3}} {
		m.Get(0, k.File, k.Strip, 0, 64)
	}
	for pass, want := range []int{2, 2, 1, 0} {
		if n := m.PromoteHotServer(0); n != want {
			t.Fatalf("pass %d pinned %d, want %d", pass, n, want)
		}
	}
	want := []Key{{"f", 3}, {"g", 1}, {"f", 5}, {"e", 7}, {"f", 4}}
	acts := m.Actions()
	if len(acts) != len(want) {
		t.Fatalf("actions = %v, want %d promotions", acts, len(want))
	}
	for i, k := range want {
		if acts[i].Kind != "promote" || acts[i].File != k.File || acts[i].Strip != k.Strip {
			t.Errorf("promotion %d = %v, want %s strip %d", i, acts[i], k.File, k.Strip)
		}
	}
	// A reset window leaves no candidates: nothing was re-hit or fetched.
	m.DemoteIdleServer(0)
	m.ResetWindows()
	if n := m.PromoteHotServer(0); n != 0 {
		t.Errorf("promote after a quiet window pinned %d strips", n)
	}
}

func TestManagerDemotesIdlePinsWhenFetchesRunFast(t *testing.T) {
	m, err := NewManager(sim.NewEngine(), 1, Config{BudgetBytes: 1024, MaxPromotionsPerTick: 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	// Window 1: slow fetches + hits → the controller promotes all three.
	for _, k := range []Key{{"g", 1}, {"f", 2}, {"f", 1}} {
		m.RecordFetch(0, k.File, k.Strip, 0, buf, 500*sim.Microsecond)
		m.Get(0, k.File, k.Strip, 0, 64)
	}
	if n := m.PromoteHotServer(0); n != 3 {
		t.Fatalf("setup promoted %d strips, want 3", n)
	}
	m.ResetWindows()
	// Window 2: fast fetch traffic elsewhere, one pin still hit → the
	// controller's demote pass releases the two idle pins in (file, strip)
	// order and keeps the hit one.
	m.RecordFetch(0, "f", 9, 0, buf, sim.Microsecond)
	m.Get(0, "f", 2, 0, 64)
	if n := m.DemoteIdleServer(0); n != 2 {
		t.Fatalf("DemoteIdleServer = %d, want 2", n)
	}
	if !m.Server(0).Pinned("f", 2) {
		t.Error("pin hit this window was demoted")
	}
	if m.Server(0).Pinned("f", 1) || m.Server(0).Pinned("g", 1) {
		t.Error("idle pin survived a fast window")
	}
	acts := m.Actions()
	if len(acts) != 5 || acts[3].Kind != "demote" || acts[3].File != "f" || acts[3].Strip != 1 ||
		acts[4].Kind != "demote" || acts[4].File != "g" || acts[4].Strip != 1 {
		t.Errorf("actions = %v, want three promotes then demote f/1, g/1", acts)
	}
}

func TestManagerHitRateEstimatePerFile(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewManager(eng, 1, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.HitRateEstimate("f") != 0 {
		t.Error("estimate nonzero before observations")
	}
	buf := make([]byte, 100)
	m.RecordFetch(0, "f", 1, 0, buf, sim.Microsecond)
	if m.HitRateEstimate("f") != 0 {
		t.Error("estimate nonzero after a miss only")
	}
	m.Get(0, "f", 1, 0, 100)
	if got := m.HitRateEstimate("f"); got != 0.5 {
		t.Errorf("estimate = %v, want 0.5", got)
	}
	if m.HitRateEstimate("g") != 0 {
		t.Error("another file's estimate leaked")
	}
}

func TestManagerInvalidateBroadcasts(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewManager(eng, 3, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for srv := 0; srv < 3; srv++ {
		m.RecordFetch(srv, "f", 1, 0, buf, sim.Microsecond)
		m.RecordFetch(srv, "f", 2, 0, buf, sim.Microsecond)
	}
	m.InvalidateStrip("f", 1)
	for srv := 0; srv < 3; srv++ {
		if m.Server(srv).Holds("f", 1) {
			t.Errorf("server %d kept the invalidated strip", srv)
		}
		if !m.Server(srv).Holds("f", 2) {
			t.Errorf("server %d lost an unrelated strip", srv)
		}
	}
	m.InvalidateFile("f")
	for srv := 0; srv < 3; srv++ {
		if m.Server(srv).UsedBytes() != 0 {
			t.Errorf("server %d kept bytes after file invalidation", srv)
		}
	}
}

func TestManagerRestartPurgeViaIncarnation(t *testing.T) {
	eng := sim.NewEngine()
	incs := []uint64{1, 1}
	m, err := NewManager(eng, 2, testConfig(), func(srv int) uint64 { return incs[srv] }, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	m.RecordFetch(0, "f", 1, 0, buf, sim.Microsecond)
	m.RecordFetch(1, "f", 2, 0, buf, sim.Microsecond)
	incs[0] = 2 // server 0 restarts
	if m.Server(0).Holds("f", 1) {
		t.Error("server 0's cache survived its restart")
	}
	if !m.Server(1).Holds("f", 2) {
		t.Error("server 1's cache purged by server 0's restart")
	}
}

func TestManagerDiscardsWindowAcrossRestart(t *testing.T) {
	// A crash+restart mid-window must discard the pre-crash hit window,
	// not carry it into the post-restart one: pre-crash hits would
	// otherwise read as re-hit candidates and as an idle-pin signal on a
	// server whose memory is actually empty.
	incs := []uint64{1}
	m, err := NewManager(sim.NewEngine(), 1, testConfig(), func(int) uint64 { return incs[0] }, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	m.RecordFetch(0, "f", 1, 0, buf, 10*sim.Millisecond) // pre-crash
	m.Get(0, "f", 1, 0, 64)
	m.Get(0, "f", 1, 0, 64)
	incs[0] = 2                                       // crash + restart mid-window
	m.RecordFetch(0, "f", 2, 0, buf, sim.Microsecond) // post-restart
	m.Get(0, "f", 2, 0, 64)
	if got := m.WindowHits(0); got != 1 {
		t.Errorf("window after restart = %d hits, want only the post-restart one", got)
	}
	if n := m.PromoteHotServer(0); n != 1 {
		t.Fatalf("PromoteHotServer = %d, want 1", n)
	}
	if m.Server(0).Holds("f", 1) || !m.Server(0).Pinned("f", 2) {
		t.Error("promote pass acted on the stale pre-crash window")
	}
}

func TestManagerExternalTuningHandsOverTrigger(t *testing.T) {
	// The manager has no trigger of its own: slow fetches and re-hits pin
	// nothing until the controller calls a pass, however much simulated
	// time goes by.
	eng := sim.NewEngine()
	m, err := NewManager(eng, 1, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sunk []sim.Time
	m.SetLatencySink(func(srv int, lat sim.Time) { sunk = append(sunk, lat) })
	buf := make([]byte, 64)
	eng.Spawn("workload", func(p *sim.Proc) {
		m.RecordFetch(0, "f", 1, 0, buf, 500*sim.Microsecond)
		m.Get(0, "f", 1, 0, 64)
		p.Sleep(sim.Second)
		if len(m.Actions()) != 0 || m.Server(0).Pinned("f", 1) {
			t.Error("manager pinned without a controller")
		}
		if m.WindowHits(0) != 1 {
			t.Errorf("WindowHits = %d, want 1", m.WindowHits(0))
		}
		// The controller drives the deterministic passes.
		if n := m.PromoteHotServer(0); n != 1 {
			t.Errorf("PromoteHotServer = %d, want 1", n)
		}
		m.ResetWindows()
		if m.WindowHits(0) != 0 {
			t.Error("ResetWindows left window hits behind")
		}
		if n := m.DemoteIdleServer(0); n != 1 {
			t.Errorf("DemoteIdleServer = %d, want 1", n)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 1 || sunk[0] != 500*sim.Microsecond {
		t.Errorf("latency sink saw %v, want one 500µs sample", sunk)
	}
	acts := m.Actions()
	if len(acts) != 2 || acts[0].Kind != "promote" || acts[1].Kind != "demote" {
		t.Errorf("actions = %v, want externally driven promote then demote", acts)
	}
}

func TestManagerBandHeatRanksFiles(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewManager(eng, 1, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	m.RecordFetch(0, "cold", 1, 0, buf, sim.Microsecond)
	m.AddBandHeat("piped", 500)
	m.AddBandHeat("piped", 250)
	m.AddBandHeat("piped", 0)  // no-op
	m.AddBandHeat("piped", -8) // no-op
	if got := m.FileBandBytes("piped"); got != 750 {
		t.Errorf("FileBandBytes = %d, want 750", got)
	}
	// Band heat ranks files but never biases the predictor's hit fraction.
	if m.HitRateEstimate("piped") != 0 {
		t.Error("band heat leaked into the hit-rate estimate")
	}
	top := m.TopFiles(0)
	if len(top) != 2 || top[0].File != "piped" || top[0].BandBytes != 750 || top[1].File != "cold" {
		t.Errorf("TopFiles = %+v, want piped (750 band bytes) ahead of cold", top)
	}
}
