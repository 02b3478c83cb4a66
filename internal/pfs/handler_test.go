package pfs

import (
	"bytes"
	"testing"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/layout"
	"github.com/hpcio/das/internal/sim"
)

// dropNth is a fault policy that loses exactly the nth remote message
// (1-based) and otherwise defers to the cluster's fault state.
type dropNth struct {
	*fault.State
	n, seen int
}

func (d *dropNth) DropMessage(from, to int) (bool, sim.Time) {
	d.seen++
	return d.seen == d.n, 0
}

// TestFaultTimeRequestsRunOnTheChain: with the fault layer armed, clients
// box their requests as values, and the server still serves reads and
// non-forwarding writes on the request chain, not a handler process.
func TestFaultTimeRequestsRunOnTheChain(t *testing.T) {
	clu, fs := testFS(t)
	if _, err := fs.Create("f", 4*64, layout.NewRoundRobin(4), CreateOptions{StripSize: 64}); err != nil {
		t.Fatal(err)
	}
	data := pattern(64)
	fs.Server(1).Preload("f", 1, data)
	clu.Faults.MarkActive()
	run(t, clu, func(p *sim.Proc) {
		got, err := fs.ReadStripFrom(p, clu.ComputeID(0), 1, "f", 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read under armed faults returned the wrong bytes")
		}
		if err := fs.WriteStripTo(p, clu.ComputeID(0), 2, "f", 2, data, false); err != nil {
			t.Fatal(err)
		}
	})
	// Each server served one request; a chain pools itself when done, a
	// handler process leaves the pool empty.
	for _, srv := range []int{1, 2} {
		if n := len(fs.Server(srv).taskFree); n != 1 {
			t.Errorf("server %d pooled %d request chains, want 1: its fault-time request took a handler process", srv, n)
		}
	}
	if n := len(fs.readReqFree) + len(fs.writeReqFree); n != 0 {
		t.Fatalf("%d pooled request pointers after fault-time calls, want 0 (requests must be boxed values)", n)
	}
}

// TestRetransmittedRequestIsAnsweredTwice drops the first response of a
// read and of a write: the client times out and resends the same boxed
// request, and the server serves — disk pass and response — both copies.
// Resent requests are values, so no pooled pointer is consumed twice.
func TestRetransmittedRequestIsAnsweredTwice(t *testing.T) {
	for _, write := range []bool{false, true} {
		clu, fs := testFS(t)
		data := pattern(4 * 64)
		writeHealthy(t, clu, fs, layout.NewRoundRobin(4), data, 64)
		pooled := len(fs.readReqFree) + len(fs.writeReqFree)
		// Message 1 is the request, message 2 its response.
		clu.Faults.MarkActive()
		clu.Net.SetFaults(&dropNth{State: clu.Faults, n: 2})
		srv := fs.Server(2)
		disk := clu.Disk(srv.NodeID())
		reqs, reads, writes := srv.Requests(), disk.Reads(), disk.Writes()
		fresh := pattern(64)
		run(t, clu, func(p *sim.Proc) {
			if write {
				if err := fs.WriteStripTo(p, clu.ComputeID(0), 2, "f", 2, fresh, false); err != nil {
					t.Fatal(err)
				}
				return
			}
			got, err := fs.ReadStripFrom(p, clu.ComputeID(0), 2, "f", 2, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[128:192]) {
				t.Error("retransmitted read returned the wrong bytes")
			}
		})
		if got := srv.Requests() - reqs; got != 2 {
			t.Fatalf("write=%v: server received %d requests, want 2", write, got)
		}
		if write {
			if got := disk.Writes() - writes; got != 2 {
				t.Errorf("write: %d disk writes, want 2 (both copies served)", got)
			}
		} else if got := disk.Reads() - reads; got != 2 {
			t.Errorf("read: %d disk reads, want 2 (both copies served)", got)
		}
		rec := clu.Recovery
		if rec.DroppedMessages() != 1 || rec.Timeouts() != 1 || rec.Retries() != 1 {
			t.Errorf("write=%v: dropped %d, timeouts %d, retries %d; want 1 each",
				write, rec.DroppedMessages(), rec.Timeouts(), rec.Retries())
		}
		if got := len(fs.readReqFree) + len(fs.writeReqFree); got != pooled {
			t.Errorf("write=%v: request pool went from %d to %d entries across fault-time calls", write, pooled, got)
		}
		seen := make(map[any]bool)
		for _, r := range fs.readReqFree {
			if seen[r] {
				t.Fatal("a pooled read request was consumed twice")
			}
			seen[r] = true
		}
		for _, r := range fs.writeReqFree {
			if seen[r] {
				t.Fatal("a pooled write request was consumed twice")
			}
			seen[r] = true
		}
	}
}
