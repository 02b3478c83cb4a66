package simnet

import (
	"fmt"
	"testing"

	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// TestCallCancelableAbandonedReplyReclaimed checks the abandoned-reply
// contract end to end: a call that gives up leaves its reply mailbox
// armed, the late response is dropped unobserved when it finally lands,
// the mailbox rejoins the pool, and a later RPC reusing that mailbox
// never sees the stale response.
func TestCallCancelableAbandonedReplyReclaimed(t *testing.T) {
	eng, net := newNet(t, 2, 1e9, 0)
	eng.SpawnDaemon("server", func(p *sim.Proc) {
		port := net.Node(1).Port("rpc")
		for {
			req := port.Get(p)
			if req.Payload.(string) == "slow" {
				p.Sleep(sim.Millisecond) // respond long after the caller gave up
				net.Respond(p, req, "late", 10, metrics.ServerToClient)
				continue
			}
			net.Respond(p, req, "fresh", 10, metrics.ServerToClient)
		}
	})
	var gaveUp bool
	var second Message
	eng.Spawn("client", func(p *sim.Proc) {
		_, ok := net.CallCancelable(p,
			Message{From: 0, To: 1, Port: "rpc", Size: 10, Payload: "slow", Class: metrics.ClientToServer},
			0, 100*sim.Microsecond, nil)
		gaveUp = !ok
		// Wait past the late response's arrival, then issue a fresh RPC: it
		// reuses the reclaimed mailbox and must get its own answer.
		p.Sleep(2 * sim.Millisecond)
		second = net.Call(p,
			Message{From: 0, To: 1, Port: "rpc", Size: 10, Payload: "quick", Class: metrics.ClientToServer})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !gaveUp {
		t.Fatal("first call did not give up at its deadline")
	}
	if got := second.Payload.(string); got != "fresh" {
		t.Fatalf("second call saw %q — the abandoned response leaked through", got)
	}
	// Both RPCs rode the single pooled mailbox: the abandoned one was
	// reclaimed (not leaked), and nothing spurious joined the pool.
	if len(net.replyFree) != 1 {
		t.Fatalf("reply pool holds %d mailboxes after run, want 1", len(net.replyFree))
	}
	eng.Shutdown()
}

// TestCallCancelableAbortReclaims covers the abort-driven give-up path:
// the reply mailbox is likewise reclaimed once the response lands.
func TestCallCancelableAbortReclaims(t *testing.T) {
	eng, net := newNet(t, 2, 1e9, 0)
	eng.SpawnDaemon("server", func(p *sim.Proc) {
		port := net.Node(1).Port("rpc")
		for {
			req := port.Get(p)
			p.Sleep(sim.Millisecond)
			net.Respond(p, req, "late", 10, metrics.ServerToClient)
		}
	})
	eng.Spawn("client", func(p *sim.Proc) {
		_, ok := net.CallCancelable(p,
			Message{From: 0, To: 1, Port: "rpc", Size: 10, Payload: "x", Class: metrics.ClientToServer},
			50*sim.Microsecond, 0, func() bool { return true })
		if ok {
			t.Error("call succeeded despite aborting")
		}
		p.Sleep(2 * sim.Millisecond) // let the late response land and reclaim
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(net.replyFree) != 1 {
		t.Fatalf("reply pool holds %d mailboxes after run, want 1", len(net.replyFree))
	}
	eng.Shutdown()
}

// TestMixedNetworkWorkloadMatchesFrozen runs a mixed Send/Call/SendAsync
// workload — three clients contending for one server's NICs — and checks
// event count, clock and traffic against the values recorded when the
// process-per-step construction cross-checked the task chains live.
func TestMixedNetworkWorkloadMatchesFrozen(t *testing.T) {
	eng := sim.NewEngine()
	traffic := metrics.NewTraffic()
	net := New(eng, Config{BytesPerSec: 1e6, Latency: 50 * sim.Microsecond}, traffic)
	for i := 0; i < 4; i++ {
		net.AddNode(i)
	}
	eng.SpawnDaemon("server", func(p *sim.Proc) {
		port := net.Node(3).Port("rpc")
		for {
			req := port.Get(p)
			net.Respond(p, req, "ok", 2048, metrics.ServerToClient)
		}
	})
	for c := 0; c < 3; c++ {
		c := c
		eng.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				net.Call(p, Message{From: c, To: 3, Port: "rpc", Size: 4096,
					Payload: "req", Class: metrics.ClientToServer})
				done := net.SendAsync(p, Message{From: c, To: (c + 1) % 3, Port: "peer",
					Size: 1024, Class: metrics.ServerToServer})
				net.Send(p, Message{From: c, To: 3, Port: "oneway", Size: 512,
					Class: metrics.ClientToServer})
				done.Wait(p)
			}
		})
	}
	// Sinks for the one-way and peer traffic.
	eng.SpawnDaemon("sink", func(p *sim.Proc) {
		port := net.Node(3).Port("oneway")
		for {
			port.Get(p)
		}
	})
	for c := 0; c < 3; c++ {
		c := c
		eng.SpawnDaemon("peersink", func(p *sim.Proc) {
			port := net.Node(c).Port("peer")
			for {
				port.Get(p)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("ev=%d t=%d traffic=%v", eng.Events(), int64(eng.Now()), traffic.Snapshot())
	eng.Shutdown()
	const want = "ev=303 t=93784000 traffic=map[client→server:69120 server→client:30720 server↔server:15360 disk read:0 disk write:0]"
	if got != want {
		t.Fatalf("mixed workload diverged from its frozen schedule:\n got  %s\n want %s", got, want)
	}
}
