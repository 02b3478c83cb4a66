package experiments

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcio/das/internal/cluster"
	"github.com/hpcio/das/internal/core"
	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/grid"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/pfs"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/workload"
)

// The frozen-digest table is the identity gate for the engine: every run
// below must reproduce its pinned fingerprint exactly.

func TestScaleDigestsMatchFrozen(t *testing.T) {
	points := []ScaleOptions{
		{Nodes: 24, OpsPerClient: 24, Seed: 3},
		{Nodes: 64, OpsPerClient: 32, Seed: 7},
		{Nodes: 640, OpsPerClient: 16, Seed: 11},
		{Nodes: 640, OpsPerClient: 32, Seed: 11}, // the -exp scale smoke point
	}
	for _, o := range points {
		if o.Nodes >= 640 && testing.Short() {
			continue
		}
		st := mustScale(t, o)
		if err := CheckDigest(ScaleDigestName(o.Nodes, o.OpsPerClient, o.Seed), st.Digest()); err != nil {
			t.Error(err)
		}
	}
}

func TestFaultDigestsMatchFrozen(t *testing.T) {
	for _, kind := range faultDigestKinds {
		d, err := runFaultDigest(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckDigest(faultDigestName(kind), d); err != nil {
			t.Error(err)
		}
	}
}

// faultDigestKinds lists the fault-kind runs FrozenDigests pins, in the
// order runFaultDigest accepts them.
var faultDigestKinds = []string{"crash-restart", "slow-disk", "slow-nic", "loss-drop", "loss-delay"}

// faultDigestName keys a fault-kind run in FrozenDigests.
func faultDigestName(kind string) string { return "faults/" + kind }

// Fault-digest mix geometry: a 4+4-node platform, a terrain raster one
// row per strip, and a byte file for the raw client traffic, both on the
// fully mirrored grouped layout so forwarding writes push replicas and a
// single crash always leaves a live copy.
const (
	digestNodes    = 8
	digestW        = 64
	digestH        = 48
	digestStrip    = int64(digestW * grid.ElemSize)
	digestClientOp = 24
	digestBlob     = "blob"
)

// runFaultDigest runs the fault-kind mix under one fault kind and returns
// its digest. The mix drives, in three engine runs on one platform:
//
//  1. four process clients issuing ReadStripFrom, replica-forwarding
//     WriteStripTo and ReadSpansFrom against a mirrored byte file;
//  2. a DAS offload, then a NAS offload, of flow-routing;
//  3. the terrain4 kernel-DAG pushdown under DAS — under crash-restart,
//     a pipeline crash catch-up.
//
// Each phase installs the kind's fault plan at its start; slowdowns and
// message delay persist once applied. The loss-drop kind drops messages
// in phase 1 only: the pushdown client waits for each stage reply with no
// deadline while the target lives, so a lost stage request stalls phase 3
// forever (ROADMAP.md).
func runFaultDigest(kind string) (Digest, error) {
	plan, ok := faultDigestPlans[kind]
	if !ok {
		return Digest{}, fmt.Errorf("experiments: unknown fault digest kind %q", kind)
	}
	cfg := cluster.Default()
	cfg.ComputeNodes, cfg.StorageNodes = digestNodes/2, digestNodes/2
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return Digest{}, err
	}
	defer sys.Close()
	servers := sys.FS.Servers()
	g := workload.Terrain(digestW, digestH, 5)
	probe := layout.NewLocator(grid.ElemSize, digestStrip, layout.NewRoundRobin(servers))
	halo := probe.RequiredHalo(int64(digestW) + 1)
	mirrored := layout.NewGroupedReplicated(servers, halo, halo)
	if _, err := sys.IngestGrid("in", g, mirrored, digestStrip); err != nil {
		return Digest{}, err
	}
	strips := int64(digestH)
	if _, err := sys.FS.Create(digestBlob, strips*digestStrip, mirrored, pfs.CreateOptions{StripSize: digestStrip}); err != nil {
		return Digest{}, err
	}
	buf := make([]byte, digestStrip)
	for s := int64(0); s < strips; s++ {
		fillStrip(buf, 17, s)
		for _, h := range layout.Holders(mirrored, s) {
			sys.FS.Server(h).Preload(digestBlob, s, buf)
		}
	}

	sum := uint64(fnvOffset)
	note := func(err error) {
		if err != nil {
			sum = fnvMix(sum, stringSum(err.Error()))
		}
	}
	install := func(phase int) {
		note(sys.Clu.InstallFaultPlan(plan(phase)))
	}

	// Phase 1: raw process clients.
	install(1)
	sums := make([]uint64, cfg.ComputeNodes)
	for c := 0; c < cfg.ComputeNodes; c++ {
		c := c
		node := sys.Clu.ComputeID(c)
		sys.Clu.Eng.Spawn("digest-client", func(p *sim.Proc) {
			rng := clientRng(23, c)
			h := uint64(fnvOffset)
			wbuf := make([]byte, digestStrip)
			for i := 0; i < digestClientOp; i++ {
				strip := int64(rng.next() % uint64(strips))
				srv := mirrored.Primary(strip)
				switch {
				case i%4 == 3:
					fillStrip(wbuf, rng.next(), strip)
					if err := sys.FS.WriteStripTo(p, node, srv, digestBlob, strip, wbuf, true); err != nil {
						h = fnvMix(h, stringSum(err.Error()))
					}
				case i%5 == 4:
					spans := []pfs.Span{{Strip: strip}, {Strip: strip, Lo: 8, Hi: 64}}
					data, err := sys.FS.ReadSpansFrom(p, node, srv, digestBlob, spans)
					if err != nil {
						h = fnvMix(h, stringSum(err.Error()))
						continue
					}
					for _, d := range data {
						h = fnvMix(h, stripSum(d))
						pfs.ReleaseBuffer(d)
					}
				default:
					data, err := sys.FS.ReadStripFrom(p, node, srv, digestBlob, strip, 0, 0)
					if err != nil {
						h = fnvMix(h, stringSum(err.Error()))
						continue
					}
					h = fnvMix(h, stripSum(data))
					pfs.ReleaseBuffer(data)
				}
			}
			sums[c] = h
		})
	}
	note(sys.Clu.Eng.Run())
	for _, s := range sums {
		sum = fnvMix(sum, s)
	}
	if kind == "loss-drop" {
		note(sys.Clu.ApplyFault(fault.Event{Kind: fault.Loss, Server: -1, Frac: 0}))
	}

	// Phase 2: offloads.
	install(2)
	for _, sc := range []core.Scheme{core.DAS, core.NAS} {
		out := "out-" + sc.String()
		rep, err := sys.Execute(core.Request{Op: "flow-routing", Input: "in", Output: out, Scheme: sc, DisablePrediction: true})
		note(err)
		if err == nil {
			sum = fnvMix(sum, uint64(rep.ExecTime))
			sum = gridDigest(sys, out, sum)
		}
	}

	// Phase 3: kernel-DAG pushdown.
	install(3)
	rep, err := sys.ExecuteDAG(core.DAGRequest{DAG: PipelineDAG(), Input: "in", Output: "dag",
		Scheme: core.DAS, DisablePrediction: true})
	note(err)
	if err == nil {
		sum = fnvMix(sum, uint64(rep.Run.CatchUps))
		sum = fnvMix(sum, uint64(rep.Run.Redispatches))
		for _, v := range rep.Reduce {
			sum = fnvMix(sum, math.Float64bits(v))
		}
		sum = gridDigest(sys, rep.Output, sum)
	}

	return Digest{
		Events:   sys.Clu.Eng.Events(),
		SimTime:  sys.Clu.Eng.Now(),
		Traffic:  sys.Clu.Traffic.Snapshot(),
		Recovery: recoveryCounts(sys.Clu.Recovery),
		Checksum: sum,
	}, nil
}

// faultDigestPlans maps each fault kind to its per-phase plan. Offsets
// are from the phase's start; crash times land inside each phase's
// traffic.
var faultDigestPlans = map[string]func(phase int) fault.Plan{
	"crash-restart": func(phase int) fault.Plan {
		at := [...]sim.Time{0, 2 * sim.Millisecond, 5 * sim.Millisecond, 8 * sim.Millisecond}[phase]
		return fault.Plan{Events: []fault.Event{
			{At: at, Kind: fault.Crash, Server: 1},
			{At: at + 30*sim.Millisecond, Kind: fault.Restart, Server: 1},
		}}
	},
	"slow-disk": func(int) fault.Plan {
		return fault.Plan{Events: []fault.Event{{Kind: fault.SlowDisk, Server: 2, Factor: 0.25}}}
	},
	"slow-nic": func(int) fault.Plan {
		return fault.Plan{Events: []fault.Event{{Kind: fault.SlowNIC, Server: 1, Factor: 0.25}}}
	},
	"loss-drop": func(phase int) fault.Plan {
		if phase > 1 {
			return fault.Plan{}
		}
		return fault.Plan{Seed: 5, Events: []fault.Event{{Kind: fault.Loss, Server: -1, Frac: 0.05}}}
	},
	"loss-delay": func(phase int) fault.Plan {
		if phase > 1 {
			return fault.Plan{}
		}
		return fault.Plan{Seed: 9, Events: []fault.Event{{Kind: fault.Loss, Server: -1, Frac: 0.1, Delay: sim.Millisecond}}}
	},
}

// gridDigest folds a stored raster's elements into h; a fetch error is
// folded in as its message.
func gridDigest(sys *core.System, name string, h uint64) uint64 {
	g, err := sys.FetchGrid(name)
	if err != nil {
		return fnvMix(h, stringSum(err.Error()))
	}
	for _, v := range g.Data {
		h = fnvMix(h, math.Float64bits(v))
	}
	return h
}

// stringSum digests a string.
func stringSum(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = fnvMix(h, uint64(s[i]))
	}
	return h
}
