package experiments

import (
	"fmt"
	"math"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// Frozen digests are the engine's regression fixture. Each one
// fingerprints a deterministic run — event count, final clock, per-class
// traffic, recovery counters and an output checksum — and FrozenDigests
// pins the value recorded when the simulator still carried a second,
// process-per-step engine construction that every run was cross-checked
// against. A run that drifts from its frozen digest has changed the
// simulation, not just its speed. Both the experiments tests (which also
// hold the fault-kind mix, digest_test.go) and `dasbench -exp scale`
// check against this one table.

// Digest is the fingerprint of one simulation run.
type Digest struct {
	Events   uint64
	SimTime  sim.Time
	Traffic  map[metrics.TrafficClass]int64
	Recovery RecoveryCounts
	Checksum uint64
}

// RecoveryCounts is a value copy of a metrics.Recovery's counters.
type RecoveryCounts struct {
	Timeouts, Retries, FailoverReads, SkippedForwards, DroppedMessages, ExecRetries int64
}

// recoveryCounts snapshots r.
func recoveryCounts(r *metrics.Recovery) RecoveryCounts {
	return RecoveryCounts{
		Timeouts:        r.Timeouts(),
		Retries:         r.Retries(),
		FailoverReads:   r.FailoverReads(),
		SkippedForwards: r.SkippedForwards(),
		DroppedMessages: r.DroppedMessages(),
		ExecRetries:     r.ExecRetries(),
	}
}

// String renders the digest in the frozen table's format.
func (d Digest) String() string {
	r := d.Recovery
	return fmt.Sprintf("ev=%d t=%d c2s=%d s2c=%d s2s=%d dr=%d dw=%d rec=%d/%d/%d/%d/%d/%d sum=%016x",
		d.Events, int64(d.SimTime),
		d.Traffic[metrics.ClientToServer], d.Traffic[metrics.ServerToClient], d.Traffic[metrics.ServerToServer],
		d.Traffic[metrics.DiskRead], d.Traffic[metrics.DiskWrite],
		r.Timeouts, r.Retries, r.FailoverReads, r.SkippedForwards, r.DroppedMessages, r.ExecRetries,
		d.Checksum)
}

// CheckDigest compares a run's digest against its frozen value.
func CheckDigest(name string, d Digest) error {
	want, ok := FrozenDigests[name]
	if !ok {
		return fmt.Errorf("digest %s: no frozen value", name)
	}
	if got := d.String(); got != want {
		return fmt.Errorf("digest %s diverged from its frozen value:\n got  %s\n want %s", name, got, want)
	}
	return nil
}

// ScaleDigestName keys a scale run in FrozenDigests.
func ScaleDigestName(nodes, ops int, seed uint64) string {
	return fmt.Sprintf("scale/%d/%d/%d", nodes, ops, seed)
}

// Digest fingerprints a scale run.
func (s ScaleStats) Digest() Digest {
	return Digest{
		Events:   s.Events,
		SimTime:  s.SimTime,
		Traffic:  s.Traffic,
		Recovery: s.Recovery,
		Checksum: fnvMix(s.Checksum, math.Float64bits(s.KernelSum)),
	}
}

// FrozenDigests holds every pinned digest, keyed by ScaleDigestName or,
// for the fault-kind mix in digest_test.go, "faults/<kind>". The scale rows cover the test points, the `-exp scale`
// sweep and its smoke point; each was recorded identically under the
// task-chain and process-per-step constructions with both event queues.
// The fault rows were recorded identically under task-chain and
// process-handler dispatch.
var FrozenDigests = map[string]string{
	"faults/crash-restart": "ev=6374 t=350813588 c2s=58880 s2c=132640 s2s=299472 dr=247296 dw=299520 rec=2/13/24/24/3/0 sum=af3fca932d3695bf",
	"faults/slow-disk":     "ev=5390 t=97362238 c2s=55424 s2c=130080 s2s=343776 dr=256752 dw=331776 rec=0/0/0/0/0/0 sum=9c544fa86db5ba1b",
	"faults/slow-nic":      "ev=5412 t=98229424 c2s=55424 s2c=130080 s2s=343776 dr=256752 dw=331776 rec=0/0/0/0/0/0 sum=eaeba6cda29fb01b",
	"faults/loss-drop":     "ev=19737 t=2366483691 c2s=62208 s2c=131104 s2s=361056 dr=258344 dw=348672 rec=28/27/0/0/19/0 sum=3988b57105934979",
	"faults/loss-delay":    "ev=5511 t=115220049 c2s=55424 s2c=130080 s2s=343776 dr=256752 dw=331776 rec=0/0/0/0/0/0 sum=d3133de440555dbf",
	"scale/24/24/3":        "ev=3049 t=12158427 c2s=73728 s2c=294912 s2s=0 dr=258048 dw=36864 rec=0/0/0/0/0/0 sum=d937a368ab79950d",
	"scale/64/32/7":        "ev=10715 t=20097764 c2s=262144 s2c=1048576 s2s=0 dr=917504 dw=131072 rec=0/0/0/0/0/0 sum=3ecde341190029f5",
	"scale/640/16/11":      "ev=53938 t=16329765 c2s=1310720 s2c=5242880 s2s=0 dr=4587520 dw=655360 rec=0/0/0/0/0/0 sum=37bf226cccb86948",
	"scale/640/32/11":      "ev=107114 t=23937342 c2s=2621440 s2c=10485760 s2s=0 dr=9175040 dw=1310720 rec=0/0/0/0/0/0 sum=5997c3c6f46ca7d5",
	"scale/24/1024/11":     "ev=128654 t=438545821 c2s=3145728 s2c=12582912 s2s=0 dr=11010048 dw=1572864 rec=0/0/0/0/0/0 sum=be0771182152e6ee",
	"scale/64/1024/11":     "ev=343038 t=452217481 c2s=8388608 s2c=33554432 s2s=0 dr=29360128 dw=4194304 rec=0/0/0/0/0/0 sum=912fb1a1b2031eb5",
	"scale/160/1024/11":    "ev=858075 t=454090310 c2s=20971520 s2c=83886080 s2s=0 dr=73400320 dw=10485760 rec=0/0/0/0/0/0 sum=217628faf9610439",
	"scale/320/1024/11":    "ev=1716439 t=458908906 c2s=41943040 s2c=167772160 s2s=0 dr=146800640 dw=20971520 rec=0/0/0/0/0/0 sum=d27695c4037dc3f9",
	"scale/640/1024/11":    "ev=3432532 t=461047676 c2s=83886080 s2c=335544320 s2s=0 dr=293601280 dw=41943040 rec=0/0/0/0/0/0 sum=fdbdb539eb9725ec",
	"scale/1280/1024/11":   "ev=6864944 t=470819069 c2s=167772160 s2c=671088640 s2s=0 dr=587202560 dw=83886080 rec=0/0/0/0/0/0 sum=8507e729f374a795",
	"scale/5000/64/11":     "ev=1682092 t=31602287 c2s=40960000 s2c=163840000 s2s=0 dr=143360000 dw=20480000 rec=0/0/0/0/0/0 sum=cb34e80009173c37",
}
