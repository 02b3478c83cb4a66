// Package cluster assembles the simulated HEC platform the paper
// evaluates on (§IV-A): separate compute and storage node sets (the first
// deployment model from §III-A), an interconnect, one disk per storage
// node, and a CPU cost model for the analysis kernels. The default 1:1
// compute:storage ratio matches the paper's configuration, which gives the
// TS, NAS, and DAS schemes identical computational capability so that
// differences isolate data dependence and data transfer.
package cluster

import (
	"fmt"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simdisk"
	"github.com/hpcio/das/internal/simnet"
	"github.com/hpcio/das/internal/trace"
)

// Config describes one simulated platform.
type Config struct {
	// ComputeNodes and StorageNodes size the two node sets.
	ComputeNodes int
	StorageNodes int
	// Collocated selects the second deployment model of §III-A: compute
	// and storage share the same nodes (the MapReduce/Hadoop-style
	// arrangement), so ComputeNodes must equal StorageNodes and node i
	// serves both roles. Data local to a node moves for free; every node's
	// NIC carries both its client and its server traffic.
	Collocated bool
	// Net is the interconnect model.
	Net simnet.Config
	// Disk is the per-storage-node drive model.
	Disk simdisk.Config
	// ComputeNsPerElem is the base per-element kernel cost in simulated
	// nanoseconds; a kernel's cost is this times its Weight. Compute and
	// storage nodes have identical CPUs (the paper's 1:1 capability).
	ComputeNsPerElem float64
	// Startup is a fixed per-run job-launch overhead (process spawn, MPI
	// init, metadata opens). It produces the sub-linear scaling the
	// paper's Figs. 12–13 exhibit.
	Startup sim.Time
	// FaultSeed seeds the fault layer's randomness (message-loss draws).
	// Zero means 1; fault-free runs never draw from it.
	FaultSeed int64
}

// Default returns the parameters used throughout the reproduction. The
// absolute magnitudes are arbitrary (the substrate is a simulator, not the
// paper's Lustre testbed); their ratios — network slower than disk,
// compute comparable to a node's share of I/O — are what shape the
// results.
func Default() Config {
	return Config{
		ComputeNodes: 12,
		StorageNodes: 12,
		Net: simnet.Config{
			// The interconnect is the scarce resource the paper's whole
			// argument is about: per-NIC bandwidth sits well below the
			// local disk rate, as on bandwidth-starved HEC I/O fabrics.
			BytesPerSec: 60e6,
			Latency:     50 * sim.Microsecond,
		},
		Disk: simdisk.Config{
			ReadBytesPerSec:  300e6,
			WriteBytesPerSec: 250e6,
			SeekTime:         200 * sim.Microsecond,
		},
		ComputeNsPerElem: 100,
		Startup:          20 * sim.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ComputeNodes <= 0:
		return fmt.Errorf("cluster: compute nodes %d", c.ComputeNodes)
	case c.StorageNodes <= 0:
		return fmt.Errorf("cluster: storage nodes %d", c.StorageNodes)
	case c.Net.BytesPerSec <= 0:
		return fmt.Errorf("cluster: network bandwidth %v", c.Net.BytesPerSec)
	case c.ComputeNsPerElem < 0:
		return fmt.Errorf("cluster: compute cost %v", c.ComputeNsPerElem)
	case c.Collocated && c.ComputeNodes != c.StorageNodes:
		return fmt.Errorf("cluster: collocated deployment needs equal node sets, got %d compute / %d storage",
			c.ComputeNodes, c.StorageNodes)
	}
	return nil
}

// TotalNodes returns the number of physical nodes the platform has.
func (c Config) TotalNodes() int {
	if c.Collocated {
		return c.StorageNodes
	}
	return c.ComputeNodes + c.StorageNodes
}

// Cluster is one instantiated platform. Node ids are dense: compute nodes
// occupy [0, ComputeNodes), storage nodes [ComputeNodes,
// ComputeNodes+StorageNodes).
type Cluster struct {
	Cfg     Config
	Eng     *sim.Engine
	Net     *simnet.Network
	Traffic *metrics.Traffic
	// Faults is the live fault state: which servers are down, degraded
	// NICs, message loss. It starts healthy and inactive; InstallFaultPlan
	// (or direct ApplyFault calls from tests) perturbs it at simulated
	// times.
	Faults *fault.State
	// Recovery counts fault-handling actions (timeouts, retries, failover
	// reads); FaultLog records every applied fault event.
	Recovery *metrics.Recovery
	FaultLog *metrics.FaultLog
	// CacheStats aggregates halo-strip cache activity across servers once
	// core.EnableCache wires the subsystem; it stays all-zero otherwise.
	CacheStats *metrics.Cache
	// RestripeStats aggregates online-migration activity once
	// core.EnableRestripe wires the migrator; it stays all-zero otherwise.
	RestripeStats *metrics.Restripe
	// PipelineStats aggregates operator-DAG pushdown activity (stage
	// rounds, halo exchanges, lower-bound accounting); it stays all-zero
	// until a pipeline runs.
	PipelineStats *metrics.Pipeline
	// Trace, when non-nil, receives annotated events from the DAS layers
	// (scheme workers, AS helpers); see the trace package and cmd/dastrace.
	Trace *trace.Recorder
	// disks is dense, indexed by node id (nil for compute nodes): the
	// per-request Disk lookup on storage servers is a slice index.
	disks []*simdisk.Disk
}

// New builds a cluster on a fresh engine.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	traffic := metrics.NewTraffic()
	net := simnet.New(eng, cfg.Net, traffic)
	recovery := metrics.NewRecovery()
	faultLog := metrics.NewFaultLog()
	c := &Cluster{
		Cfg:           cfg,
		Eng:           eng,
		Net:           net,
		Traffic:       traffic,
		Faults:        fault.NewState(cfg.FaultSeed, recovery, faultLog),
		Recovery:      recovery,
		FaultLog:      faultLog,
		CacheStats:    metrics.NewCache(),
		RestripeStats: metrics.NewRestripe(),
		PipelineStats: metrics.NewPipeline(),
		disks:         make([]*simdisk.Disk, cfg.TotalNodes()),
	}
	net.SetFaults(c.Faults)
	for i := 0; i < cfg.TotalNodes(); i++ {
		net.AddNode(i)
	}
	for s := 0; s < cfg.StorageNodes; s++ {
		id := c.StorageID(s)
		c.disks[id] = simdisk.NewIndexed(eng, id, cfg.Disk, traffic)
	}
	return c, nil
}

// ComputeID maps a dense compute index to a node id.
func (c *Cluster) ComputeID(i int) int {
	if i < 0 || i >= c.Cfg.ComputeNodes {
		panic(fmt.Sprintf("cluster: compute index %d out of range", i))
	}
	return i
}

// StorageID maps a dense storage-server index to a node id. Under the
// collocated deployment, storage server s and compute worker s are the
// same physical node.
func (c *Cluster) StorageID(s int) int {
	if s < 0 || s >= c.Cfg.StorageNodes {
		panic(fmt.Sprintf("cluster: storage index %d out of range", s))
	}
	if c.Cfg.Collocated {
		return s
	}
	return c.Cfg.ComputeNodes + s
}

// IsStorage reports whether a node id belongs to the storage set.
func (c *Cluster) IsStorage(nodeID int) bool {
	if c.Cfg.Collocated {
		return nodeID >= 0 && nodeID < c.Cfg.StorageNodes
	}
	return nodeID >= c.Cfg.ComputeNodes && nodeID < c.Cfg.ComputeNodes+c.Cfg.StorageNodes
}

// Disk returns the drive attached to a storage node id.
func (c *Cluster) Disk(nodeID int) *simdisk.Disk {
	if nodeID < 0 || nodeID >= len(c.disks) || c.disks[nodeID] == nil {
		panic(fmt.Sprintf("cluster: node %d has no disk", nodeID))
	}
	return c.disks[nodeID]
}

// ComputeTime returns the simulated time to run a kernel of the given
// relative weight over n elements on one node.
func (c *Cluster) ComputeTime(n int64, weight float64) sim.Time {
	return sim.Time(float64(n) * c.Cfg.ComputeNsPerElem * weight)
}

// Utilization is a snapshot of cumulative busy time per storage server,
// used to quantify the extra load offloading places on storage nodes (the
// paper's first explanation for NAS's slowdown: servers both compute and
// serve their neighbors' dependent-data requests).
type Utilization struct {
	Egress  []sim.Time // per storage server, cumulative NIC egress busy
	Ingress []sim.Time
	Disk    []sim.Time
}

// UtilizationSnapshot captures the storage servers' cumulative resource
// busy times. Subtract two snapshots to get one operation's load.
func (c *Cluster) UtilizationSnapshot() Utilization {
	u := Utilization{
		Egress:  make([]sim.Time, c.Cfg.StorageNodes),
		Ingress: make([]sim.Time, c.Cfg.StorageNodes),
		Disk:    make([]sim.Time, c.Cfg.StorageNodes),
	}
	for s := 0; s < c.Cfg.StorageNodes; s++ {
		id := c.StorageID(s)
		u.Egress[s] = c.Net.Node(id).EgressBusy()
		u.Ingress[s] = c.Net.Node(id).IngressBusy()
		u.Disk[s] = c.Disk(id).BusyTime()
	}
	return u
}

// Sub returns the per-server deltas u - prev.
func (u Utilization) Sub(prev Utilization) Utilization {
	out := Utilization{
		Egress:  make([]sim.Time, len(u.Egress)),
		Ingress: make([]sim.Time, len(u.Ingress)),
		Disk:    make([]sim.Time, len(u.Disk)),
	}
	for i := range u.Egress {
		out.Egress[i] = u.Egress[i] - prev.Egress[i]
		out.Ingress[i] = u.Ingress[i] - prev.Ingress[i]
		out.Disk[i] = u.Disk[i] - prev.Disk[i]
	}
	return out
}

// MaxEgress returns the busiest server's NIC egress time.
func (u Utilization) MaxEgress() sim.Time { return maxTime(u.Egress) }

// MaxIngress returns the busiest server's NIC ingress time.
func (u Utilization) MaxIngress() sim.Time { return maxTime(u.Ingress) }

// MaxDisk returns the busiest server's disk time.
func (u Utilization) MaxDisk() sim.Time { return maxTime(u.Disk) }

func maxTime(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// ClassBetween returns the traffic class of a transfer between two nodes.
func (c *Cluster) ClassBetween(from, to int) metrics.TrafficClass {
	switch {
	case c.IsStorage(from) && c.IsStorage(to):
		return metrics.ServerToServer
	case c.IsStorage(from):
		return metrics.ServerToClient
	default:
		return metrics.ClientToServer
	}
}
