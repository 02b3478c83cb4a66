// Package simdisk models a storage-node disk as an exclusive resource with
// a fixed per-request positioning overhead and separate sequential read
// and write bandwidths. Requests through one disk queue up FIFO, so a
// storage server that must serve its neighbors' dependent-strip reads (the
// Normal Active Storage case from the paper) pays for them on the same
// spindle that feeds its own kernel.
package simdisk

import (
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// Config sets the disk's performance envelope.
type Config struct {
	// ReadBytesPerSec and WriteBytesPerSec are sustained sequential rates.
	ReadBytesPerSec  float64
	WriteBytesPerSec float64
	// SeekTime is charged once per request, modeling positioning plus
	// request-handling overhead.
	SeekTime sim.Time
}

// Disk is one simulated drive. All state is engine-goroutine state: the
// simulator is single-threaded by construction, so the counters are plain
// integers — an O(1) add per request, with no synchronization on the
// per-request path.
type Disk struct {
	res     *sim.Resource
	cfg     Config
	traffic *metrics.Traffic

	// factor scales both transfer rates; fault injection degrades a drive
	// by lowering it below 1.
	factor float64

	bytesRead    int64
	bytesWritten int64
	reads        int64
	writes       int64
}

// New creates a disk owned by the given engine. Traffic may be nil to skip
// shared accounting; per-disk counters are always kept.
func New(eng *sim.Engine, name string, cfg Config, traffic *metrics.Traffic) *Disk {
	return &Disk{
		res:     sim.NewResource(eng, "disk:"+name, 1),
		cfg:     cfg,
		traffic: traffic,
		factor:  1,
	}
}

// NewIndexed is New for per-node disks named "disk:node<idx>", with the
// name formatted lazily: building a five-thousand-node cluster should not
// pay a string allocation per drive for diagnostics-only names.
func NewIndexed(eng *sim.Engine, idx int, cfg Config, traffic *metrics.Traffic) *Disk {
	return &Disk{
		res:     sim.NewResourceIndexed(eng, "disk:node", idx, "", 1),
		cfg:     cfg,
		traffic: traffic,
		factor:  1,
	}
}

// SetSpeedFactor scales the disk's sequential bandwidth: 0 < f < 1
// degrades the drive, 1 restores it. Non-positive factors are clamped to
// a sliver rather than zero so in-flight requests still terminate.
func (d *Disk) SetSpeedFactor(f float64) {
	if f <= 0 {
		f = 1e-3
	}
	if f > 1 {
		f = 1
	}
	d.factor = f
}

// SpeedFactor returns the current bandwidth scale (1 = healthy).
func (d *Disk) SpeedFactor() float64 { return d.factor }

// Read charges the time to read size bytes and records the traffic.
func (d *Disk) Read(p *sim.Proc, size int64) {
	if size <= 0 {
		return
	}
	d.res.Use(p, 1, d.ReadTime(size))
	d.accountRead(size)
}

// Write charges the time to write size bytes and records the traffic.
func (d *Disk) Write(p *sim.Proc, size int64) {
	if size <= 0 {
		return
	}
	d.res.Use(p, 1, d.WriteTime(size))
	d.accountWrite(size)
}

// The Acquire/ReadTime/Finish trio below decomposes Read and Write for
// request chains: a handler task acquires the drive, sleeps the service
// time via a scheduled task, then finishes — releasing the drive and
// updating the counters at exactly the event where a process's Read would
// wake after its service sleep.

// AcquireTask takes the drive for a task-chain request: granted inline
// (true) or queued behind earlier requests, with t scheduled when the
// drive frees up (false). FIFO with process Acquire callers.
func (d *Disk) AcquireTask(t sim.Tasker) bool {
	return d.res.AcquireTask(1, t)
}

// ReadTime returns the service time for reading size bytes at the drive's
// current health.
func (d *Disk) ReadTime(size int64) sim.Time {
	return d.cfg.SeekTime + sim.TransferTime(size, d.cfg.ReadBytesPerSec*d.factor)
}

// WriteTime returns the service time for writing size bytes at the drive's
// current health.
func (d *Disk) WriteTime(size int64) sim.Time {
	return d.cfg.SeekTime + sim.TransferTime(size, d.cfg.WriteBytesPerSec*d.factor)
}

// FinishRead releases the drive and accounts a completed read of size
// bytes.
func (d *Disk) FinishRead(size int64) {
	d.res.Release(1)
	d.accountRead(size)
}

// FinishWrite releases the drive and accounts a completed write of size
// bytes.
func (d *Disk) FinishWrite(size int64) {
	d.res.Release(1)
	d.accountWrite(size)
}

func (d *Disk) accountRead(size int64) {
	d.bytesRead += size
	d.reads++
	if d.traffic != nil {
		d.traffic.Add(metrics.DiskRead, size)
	}
}

func (d *Disk) accountWrite(size int64) {
	d.bytesWritten += size
	d.writes++
	if d.traffic != nil {
		d.traffic.Add(metrics.DiskWrite, size)
	}
}

// BytesRead returns the total bytes read from this disk.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// BytesWritten returns the total bytes written to this disk.
func (d *Disk) BytesWritten() int64 { return d.bytesWritten }

// Reads returns the number of read requests served.
func (d *Disk) Reads() int64 { return d.reads }

// Writes returns the number of write requests served.
func (d *Disk) Writes() int64 { return d.writes }

// BusyTime returns the cumulative time the disk was occupied.
func (d *Disk) BusyTime() sim.Time { return d.res.BusyTime() }
