package simnet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// The parity-hazard table pins every transfer entry point under every
// per-hop fault check to the schedule recorded from the process-per-step
// construction the task chains replaced: when the measured message
// arrives (or that it never does), when each blocked party resumes, the
// engine's event count, and the dropped-message count. A chain that
// checks a fault one event early or late, or resumes a parked process
// through an extra zero-delay event, moves at least one of these.

// parityOps are the entry points under test. For Send, SendAsync, Call
// and CallCancelable the measured message is the client's request; for
// Respond and RespondTask it is the server's response.
var parityOps = []string{"Send", "SendAsync", "Call", "CallCancelable", "Respond", "RespondTask"}

// parityHazards are the fault cells. Faults are applied as the measured
// message starts unless the name ends in -mid, which applies them
// half-way through its egress serialization.
var parityHazards = []string{
	"none",
	"sender-down",
	"receiver-down-mid", // the receiver crashes while the message is on the wire
	"loss-drop",
	"loss-delay",
	"slow-nic-src",
	"slow-nic-dst",
	"slow-nic-dst-mid", // ingress bandwidth is sampled after the wire, not at start
	"first-fault-mid",  // the first fault ever lands mid-transfer: the verdict stays fault-free
}

const (
	paritySize    = 1000 // bytes: 1 ms per NIC at 1 MB/s
	parityRespLen = 600
	parityBPS     = 1e6
	parityLatency = 50 * sim.Microsecond
)

// parityCell runs one (op, hazard) scenario and renders its outcome.
func parityCell(t *testing.T, op, hazard string) string {
	t.Helper()
	eng := sim.NewEngine()
	rec := metrics.NewRecovery()
	faults := fault.NewState(3, rec, nil)
	net := New(eng, Config{BytesPerSec: parityBPS, Latency: parityLatency}, nil)
	net.SetFaults(faults)
	for i := 0; i < 3; i++ {
		net.AddNode(i)
	}
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, int64(eng.Now()))) }
	if hazard != "none" && hazard != "first-fault-mid" {
		// Armed from the start, as an installed fault plan arms the layer:
		// every leg samples the faulty path.
		faults.MarkActive()
	}
	// apply injects the hazard for a message of size bytes from src to
	// dst that starts now.
	apply := func(src, dst int, size int64) {
		half := sim.TransferTime(size, parityBPS) / 2
		switch hazard {
		case "sender-down":
			faults.SetDown(src, true)
		case "receiver-down-mid":
			eng.AfterFunc(2*half+parityLatency/2, func() { faults.SetDown(dst, true) })
		case "loss-drop":
			faults.SetLoss(1, 0)
		case "loss-delay":
			faults.SetLoss(1, 300*sim.Microsecond)
		case "slow-nic-src":
			faults.SetNICFactor(src, 0.5)
		case "slow-nic-dst":
			faults.SetNICFactor(dst, 0.5)
		case "slow-nic-dst-mid":
			eng.AfterFunc(half, func() { faults.SetNICFactor(dst, 0.5) })
		case "first-fault-mid":
			eng.AfterFunc(half, func() { faults.SetLoss(1, 0) })
		}
	}
	req := Message{From: 0, To: 1, Port: "rpc", Size: paritySize, Payload: "req", Class: metrics.ClientToServer}
	measuredRequest := op != "Respond" && op != "RespondTask"

	// Server side on node 1.
	port := net.Node(1).Port("rpc")
	switch op {
	case "Send", "SendAsync":
		eng.SpawnDaemon("sink", func(p *sim.Proc) {
			for {
				port.Get(p)
				note("recv")
			}
		})
	case "RespondTask":
		port.SetDispatcher(func(m Message) {
			note("recv")
			eng.ScheduleTask(0, &parityHandler{net: net, req: m, start: func() { apply(1, 0, parityRespLen) }})
		})
	default:
		eng.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				m := port.Get(p)
				note("recv")
				if !measuredRequest {
					apply(1, 0, parityRespLen)
				}
				net.Respond(p, m, "resp", parityRespLen, metrics.ServerToClient)
				note("responded")
			}
		})
	}

	// Client side on node 0.
	eng.Spawn("client", func(p *sim.Proc) {
		if measuredRequest {
			apply(0, 1, paritySize)
		}
		switch op {
		case "Send":
			net.Send(p, req)
		case "SendAsync":
			net.SendAsync(p, req).Wait(p)
		case "Call":
			net.Call(p, req)
		default:
			if _, ok := net.CallCancelable(p, req, 100*sim.Microsecond, 5*sim.Millisecond, nil); !ok {
				note("gave-up")
				return
			}
		}
		note("done")
	})
	err := eng.Run()
	out := fmt.Sprintf("%s ev=%d drop=%d deadlock=%v", strings.Join(log, " "), eng.Events(), rec.DroppedMessages(), err != nil)
	eng.Shutdown()
	return out
}

// parityHandler is a task-chain request handler: its start event answers
// the request with RespondTask.
type parityHandler struct {
	net   *Network
	req   Message
	start func()
}

func (h *parityHandler) RunTask() {
	h.start()
	h.net.RespondTask(h.req, "resp", parityRespLen, metrics.ServerToClient)
}

func TestTransferParityHazards(t *testing.T) {
	for _, op := range parityOps {
		for _, hz := range parityHazards {
			key := op + "/" + hz
			got := parityCell(t, op, hz)
			want, ok := frozenParity[key]
			if !ok {
				t.Errorf("%s: no frozen value (got %q)", key, got)
				continue
			}
			if got != want {
				t.Errorf("%s:\n got  %s\n want %s", key, got, want)
			}
		}
	}
}

// frozenParity was recorded from the process-per-step construction:
// classic transfer for every leg, and for RespondTask under armed faults
// the process handler's Respond that served such requests.
var frozenParity = map[string]string{
	"Send/none":                        "done@2050000 recv@2050000 ev=6 drop=0 deadlock=false",
	"Send/sender-down":                 "done@0 ev=2 drop=1 deadlock=false",
	"Send/receiver-down-mid":           "done@1050000 ev=5 drop=1 deadlock=false",
	"Send/loss-drop":                   "done@1050000 ev=4 drop=1 deadlock=false",
	"Send/loss-delay":                  "done@2350000 recv@2350000 ev=7 drop=0 deadlock=false",
	"Send/slow-nic-src":                "done@3050000 recv@3050000 ev=6 drop=0 deadlock=false",
	"Send/slow-nic-dst":                "done@3050000 recv@3050000 ev=6 drop=0 deadlock=false",
	"Send/slow-nic-dst-mid":            "done@3050000 recv@3050000 ev=7 drop=0 deadlock=false",
	"Send/first-fault-mid":             "done@2050000 recv@2050000 ev=7 drop=0 deadlock=false",
	"SendAsync/none":                   "recv@2050000 done@2050000 ev=8 drop=0 deadlock=false",
	"SendAsync/sender-down":            "done@0 ev=4 drop=1 deadlock=false",
	"SendAsync/receiver-down-mid":      "done@1050000 ev=7 drop=1 deadlock=false",
	"SendAsync/loss-drop":              "done@1050000 ev=6 drop=1 deadlock=false",
	"SendAsync/loss-delay":             "recv@2350000 done@2350000 ev=9 drop=0 deadlock=false",
	"SendAsync/slow-nic-src":           "recv@3050000 done@3050000 ev=8 drop=0 deadlock=false",
	"SendAsync/slow-nic-dst":           "recv@3050000 done@3050000 ev=8 drop=0 deadlock=false",
	"SendAsync/slow-nic-dst-mid":       "recv@3050000 done@3050000 ev=9 drop=0 deadlock=false",
	"SendAsync/first-fault-mid":        "recv@2050000 done@2050000 ev=9 drop=0 deadlock=false",
	"Call/none":                        "recv@2050000 responded@3300000 done@3300000 ev=10 drop=0 deadlock=false",
	"Call/sender-down":                 " ev=2 drop=1 deadlock=true",
	"Call/receiver-down-mid":           " ev=5 drop=1 deadlock=true",
	"Call/loss-drop":                   " ev=4 drop=1 deadlock=true",
	"Call/loss-delay":                  "recv@2350000 responded@3900000 done@3900000 ev=12 drop=0 deadlock=false",
	"Call/slow-nic-src":                "recv@3050000 responded@4900000 done@4900000 ev=10 drop=0 deadlock=false",
	"Call/slow-nic-dst":                "recv@3050000 responded@4900000 done@4900000 ev=10 drop=0 deadlock=false",
	"Call/slow-nic-dst-mid":            "recv@3050000 responded@4900000 done@4900000 ev=11 drop=0 deadlock=false",
	"Call/first-fault-mid":             "recv@2050000 responded@2700000 ev=9 drop=1 deadlock=true",
	"CallCancelable/none":              "recv@2050000 responded@3300000 done@3300000 ev=34 drop=0 deadlock=false",
	"CallCancelable/sender-down":       "gave-up@5000000 ev=102 drop=1 deadlock=false",
	"CallCancelable/receiver-down-mid": "gave-up@6050000 ev=105 drop=1 deadlock=false",
	"CallCancelable/loss-drop":         "gave-up@6050000 ev=104 drop=1 deadlock=false",
	"CallCancelable/loss-delay":        "recv@2350000 responded@3900000 done@3900000 ev=42 drop=0 deadlock=false",
	"CallCancelable/slow-nic-src":      "recv@3050000 responded@4900000 done@4900000 ev=46 drop=0 deadlock=false",
	"CallCancelable/slow-nic-dst":      "recv@3050000 responded@4900000 done@4900000 ev=46 drop=0 deadlock=false",
	"CallCancelable/slow-nic-dst-mid":  "recv@3050000 responded@4900000 done@4900000 ev=47 drop=0 deadlock=false",
	"CallCancelable/first-fault-mid":   "recv@2050000 responded@2700000 gave-up@7050000 ev=109 drop=1 deadlock=false",
	"Respond/none":                     "recv@2050000 responded@3300000 done@3300000 ev=34 drop=0 deadlock=false",
	"Respond/sender-down":              "recv@2050000 responded@2050000 gave-up@7050000 ev=106 drop=1 deadlock=false",
	"Respond/receiver-down-mid":        "recv@2050000 responded@2700000 gave-up@7050000 ev=109 drop=1 deadlock=false",
	"Respond/loss-drop":                "recv@2050000 responded@2700000 gave-up@7050000 ev=108 drop=1 deadlock=false",
	"Respond/loss-delay":               "recv@2050000 responded@3600000 done@3600000 ev=41 drop=0 deadlock=false",
	"Respond/slow-nic-src":             "recv@2050000 responded@3900000 done@3900000 ev=46 drop=0 deadlock=false",
	"Respond/slow-nic-dst":             "recv@2050000 responded@3900000 done@3900000 ev=46 drop=0 deadlock=false",
	"Respond/slow-nic-dst-mid":         "recv@2050000 responded@3900000 done@3900000 ev=47 drop=0 deadlock=false",
	"Respond/first-fault-mid":          "recv@2050000 responded@3300000 done@3300000 ev=35 drop=0 deadlock=false",
	"RespondTask/none":                 "recv@2050000 done@3300000 ev=35 drop=0 deadlock=false",
	"RespondTask/sender-down":          "recv@2050000 gave-up@7050000 ev=107 drop=1 deadlock=false",
	"RespondTask/receiver-down-mid":    "recv@2050000 gave-up@7050000 ev=110 drop=1 deadlock=false",
	"RespondTask/loss-drop":            "recv@2050000 gave-up@7050000 ev=109 drop=1 deadlock=false",
	"RespondTask/loss-delay":           "recv@2050000 done@3600000 ev=42 drop=0 deadlock=false",
	"RespondTask/slow-nic-src":         "recv@2050000 done@3900000 ev=47 drop=0 deadlock=false",
	"RespondTask/slow-nic-dst":         "recv@2050000 done@3900000 ev=47 drop=0 deadlock=false",
	"RespondTask/slow-nic-dst-mid":     "recv@2050000 done@3900000 ev=48 drop=0 deadlock=false",
	"RespondTask/first-fault-mid":      "recv@2050000 done@3300000 ev=36 drop=0 deadlock=false",
}
