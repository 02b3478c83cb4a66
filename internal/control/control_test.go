package control

import (
	"testing"

	"github.com/hpcio/das/internal/cache"
	"github.com/hpcio/das/internal/sim"
)

func testConfig() Config {
	return Config{
		SampleEvery:      sim.Millisecond,
		Percentile:       99,
		LatencyHigh:      100 * sim.Microsecond,
		LatencyLow:       10 * sim.Microsecond,
		MinWindowSamples: 2,
		UpStreak:         2,
		DownStreak:       2,
		Cooldown:         5 * sim.Millisecond,
	}
}

func testCacheConfig() cache.Config {
	return cache.Config{
		BudgetBytes:          1024,
		MaxPromotionsPerTick: 2,
	}
}

func TestConfigNormalizeDefaultsAndErrors(t *testing.T) {
	cfg, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SampleEvery <= 0 || cfg.Percentile != 99 || cfg.LatencyHigh <= cfg.LatencyLow ||
		cfg.MinWindowSamples <= 0 || cfg.UpStreak < 1 || cfg.DownStreak < 1 || cfg.Cooldown <= 0 {
		t.Errorf("bad defaults: %+v", cfg)
	}
	for _, bad := range []Config{
		{SampleEvery: -sim.Millisecond},
		{Percentile: 101},
		{Percentile: -1},
		{LatencyLow: sim.Millisecond, LatencyHigh: sim.Millisecond},
		{LatencyLow: 2 * sim.Millisecond, LatencyHigh: sim.Millisecond},
		{MinWindowSamples: -1},
		{UpStreak: -1},
		{Cooldown: -sim.Second},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	eng := sim.NewEngine()
	if _, err := New(eng, 0, Config{}); err == nil {
		t.Error("zero-server controller accepted")
	}
}

// TestControllerHysteresisStreaks drives one server hot: the first hot
// window must NOT act (UpStreak = 2), the second must promote.
func TestControllerHysteresisStreaks(t *testing.T) {
	eng := sim.NewEngine()
	mgr, err := cache.NewManager(eng, 1, testCacheConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(eng, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachCache(mgr)
	ctl.Start()
	buf := make([]byte, 64)
	hotWindow := func(p *sim.Proc) {
		// Two slow fetches (>= MinWindowSamples) and a hit so the promote
		// pass has a candidate.
		mgr.RecordFetch(0, "f", 1, 0, buf, 200*sim.Microsecond)
		mgr.RecordFetch(0, "f", 2, 0, buf, 200*sim.Microsecond)
		mgr.Get(0, "f", 1, 0, 64)
	}
	eng.Spawn("load", func(p *sim.Proc) {
		hotWindow(p)
		p.Sleep(1100 * sim.Microsecond) // window 1 closes: streak 1, no action
		if got := len(ctl.Actions()); got != 0 {
			t.Errorf("acted after one hot window: %v", ctl.Actions())
		}
		hotWindow(p)
		p.Sleep(sim.Millisecond) // window 2 closes: streak 2, promote
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	acts := ctl.Actions()
	if len(acts) != 1 || acts[0].Kind != "promote" || acts[0].Server != 0 || acts[0].Count < 1 {
		t.Fatalf("actions = %v, want one promote on server 0", acts)
	}
	if acts[0].P99 < testConfig().LatencyHigh {
		t.Errorf("promote logged tail %v below threshold", acts[0].P99)
	}
	if !mgr.Server(0).Pinned("f", 1) {
		t.Error("hot strip not pinned after promote")
	}
}

// TestControllerInBandWindowsResetStreaks: hot, in-band, hot must not
// act — the band breaks the streak.
func TestControllerInBandWindowsResetStreaks(t *testing.T) {
	eng := sim.NewEngine()
	mgr, err := cache.NewManager(eng, 1, testCacheConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(eng, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachCache(mgr)
	ctl.Start()
	buf := make([]byte, 64)
	window := func(lat sim.Time) {
		mgr.RecordFetch(0, "f", 1, 0, buf, lat)
		mgr.RecordFetch(0, "f", 2, 0, buf, lat)
		mgr.Get(0, "f", 1, 0, 64)
	}
	eng.Spawn("load", func(p *sim.Proc) {
		window(200 * sim.Microsecond) // hot
		p.Sleep(1100 * sim.Microsecond)
		window(50 * sim.Microsecond) // in-band: resets both streaks
		p.Sleep(sim.Millisecond)
		window(200 * sim.Microsecond) // hot again: streak back to 1
		p.Sleep(sim.Millisecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if acts := ctl.Actions(); len(acts) != 0 {
		t.Fatalf("band-interrupted streak still acted: %v", acts)
	}
}

// TestControllerCooldownDefersAction: a restripe event between the
// second hot window and the tick suppresses the promote, but the streak
// survives and the action fires on the first post-cool-down tick.
func TestControllerCooldownDefersAction(t *testing.T) {
	eng := sim.NewEngine()
	mgr, err := cache.NewManager(eng, 1, testCacheConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Cooldown = 2500 * sim.Microsecond
	ctl, err := New(eng, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachCache(mgr)
	ctl.Start()
	buf := make([]byte, 64)
	hotWindow := func() {
		mgr.RecordFetch(0, "f", 1, 0, buf, 200*sim.Microsecond)
		mgr.RecordFetch(0, "f", 2, 0, buf, 200*sim.Microsecond)
		mgr.Get(0, "f", 1, 0, 64)
	}
	eng.Spawn("load", func(p *sim.Proc) {
		hotWindow()
		p.Sleep(1100 * sim.Microsecond)
		hotWindow()
		ctl.StripFlipped("input", 3) // restripe activity: cool-down opens
		p.Sleep(sim.Millisecond)     // tick 2: streak reached, suppressed
		if len(ctl.Actions()) != 0 {
			t.Errorf("acted during cool-down: %v", ctl.Actions())
		}
		if ctl.CooldownSuppressed() == 0 {
			t.Error("suppression not recorded")
		}
		if !ctl.InCooldown() {
			t.Error("cool-down not running right after restripe event")
		}
		// Wait out the cool-down (ends at 3.6ms), then one more hot
		// window. The held streak is already past threshold, so the very
		// next tick acts — no second confirmation window needed.
		p.Sleep(1600 * sim.Microsecond)
		hotWindow()
		p.Sleep(sim.Millisecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	acts := ctl.Actions()
	if len(acts) != 1 || acts[0].Kind != "promote" {
		t.Fatalf("actions = %v, want the deferred promote after cool-down", acts)
	}
	if acts[0].At < 1100*sim.Microsecond+cfg.Cooldown {
		t.Errorf("promote at %v, inside the cool-down", acts[0].At)
	}
}

// TestControllerDemotesIdleServer: a pinned strip on a server that stops
// fetching but keeps hitting is released after DownStreak windows.
func TestControllerDemotesIdleServer(t *testing.T) {
	eng := sim.NewEngine()
	mgr, err := cache.NewManager(eng, 1, testCacheConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(eng, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachCache(mgr)
	ctl.Start()
	buf := make([]byte, 64)
	eng.Spawn("load", func(p *sim.Proc) {
		// Pin strip 1 by hand, and cache (but don't pin) strip 2. The
		// in-band setup latencies leave the streaks at zero.
		mgr.RecordFetch(0, "f", 1, 0, buf, 50*sim.Microsecond)
		mgr.Get(0, "f", 1, 0, 64)
		if mgr.PromoteHotServer(0) == 0 {
			t.Fatal("manual promote pinned nothing")
		}
		mgr.RecordFetch(0, "f", 2, 0, buf, 50*sim.Microsecond)
		mgr.ResetWindows()
		// Windows 2 and 3: hits on strip 2 only, zero fetches — the
		// hits-without-fetches path builds the cold streak while the pin
		// on strip 1 sits idle. Demote on the second cold window.
		p.Sleep(1100 * sim.Microsecond)
		mgr.Get(0, "f", 2, 0, 64)
		p.Sleep(sim.Millisecond)
		mgr.Get(0, "f", 2, 0, 64)
		p.Sleep(sim.Millisecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	acts := ctl.Actions()
	if len(acts) != 1 || acts[0].Kind != "demote" || acts[0].Count < 1 {
		t.Fatalf("actions = %v, want one demote", acts)
	}
	if mgr.Server(0).Pinned("f", 1) {
		t.Error("idle pin survived the demote")
	}
}

// TestControllerExcludesMigrationSamples: migration-tagged RPC samples
// are counted but never reach any sketch.
func TestControllerExcludesMigrationSamples(t *testing.T) {
	eng := sim.NewEngine()
	ctl, err := New(eng, 2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ctl.ObserveRPCLatency(0, true, sim.Second) // huge, but migration
	}
	ctl.ObserveRPCLatency(1, false, 3*sim.Microsecond)
	if got := ctl.MigrationSamplesExcluded(); got != 10 {
		t.Errorf("excluded = %d, want 10", got)
	}
	if got := ctl.RPCSamples(); got != 1 {
		t.Errorf("rpc samples = %d, want 1", got)
	}
	if got := ctl.TuningSamples(); got != 0 {
		t.Errorf("tuning samples = %d, want 0", got)
	}
	st := ctl.Stats()
	if st[0].RPCCount != 0 || st[0].RPCP99 != 0 {
		t.Errorf("migration samples leaked into server 0 sketch: %+v", st[0])
	}
	if st[1].RPCCount != 1 {
		t.Errorf("clean sample lost: %+v", st[1])
	}
}

// TestControllerAdmissionGate: restripes are denied while the cluster
// tail is healthy or a cool-down runs, and allowed once the cumulative
// tail crosses the scale-up threshold.
func TestControllerAdmissionGate(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	ctl, err := New(eng, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.AllowRestripe("input") {
		t.Error("cold cluster admitted a restripe")
	}
	for i := 0; i < 4; i++ {
		ctl.ObserveFetch(0, 200*sim.Microsecond)
	}
	if !ctl.AllowRestripe("input") {
		t.Error("hot cluster denied a restripe")
	}
	ctl.MigrationPlanned("input")
	if ctl.AllowRestripe("input") {
		t.Error("admitted during cool-down")
	}
	allowed, denied := ctl.Admissions()
	if allowed != 1 || denied != 2 {
		t.Errorf("admissions = (%d, %d), want (1, 2)", allowed, denied)
	}
	if got := ctl.ClusterP99(); got < 200*sim.Microsecond {
		t.Errorf("cluster p99 = %v, want >= 200µs", got)
	}
	if sk := ctl.MergedFetchSketch(); sk.Count() != 4 {
		t.Errorf("merged sketch count = %d, want 4", sk.Count())
	}
}
