package simnet

import (
	"github.com/hpcio/das/internal/metrics"
	"github.com/hpcio/das/internal/sim"
)

// This file is the transfer construction: a pooled task chain that walks
// egress → latency → ingress as inline engine events instead of blocking
// a goroutine through every hop. One event per hop:
//
//	egress grant    AcquireTask inline, or the granting Release's task
//	egress done     serialization over: release egress, fly the wire
//	wire done       loss draw, receiver check, ingress time fixed; a late
//	                message does the last two one delay later, as its
//	                own event
//	ingress grant   AcquireTask inline, or the granting Release's task
//	ingress done    release, account, deliver
//
// The fault layer's Active is sampled once, when the transfer starts; a
// transfer that started fault-free runs without any further checks. A
// faulted transfer checks the sender at start (and scales egress by its
// NIC factor then), draws loss or delay when it comes off the wire, and
// checks the receiver and its NIC factor on arrival — the hops at which a
// store-and-forward message meets each fault.
//
// Sync chains (Send, Respond) block their caller in one Park and end in a
// process event: the caller's resume at ingress done, after which it runs
// the epilogue itself. A faulted sync chain resumes the caller at wire
// done instead and lets it draw the loss verdict: a message lost there
// leaves the caller continuing in that very event, where resuming it from
// a task would cost a zero-delay event and reorder same-instant work. The
// caller then re-enters the chain for the ingress hops and parks again.
// Async chains (SendAsync, Call request legs, RespondTask) end in a task
// event that delivers; a lost async message ends its chain where it is
// lost, firing SendAsync's signal there.
type xfer struct {
	net      *Network
	state    int
	src, dst *Node
	size     int64
	class    metrics.TrafficClass
	faulty   bool     // the fault layer was active when the transfer started
	exDur    sim.Time // egress serialization time, fixed at start
	ixDur    sim.Time // ingress serialization time, fixed on arrival

	// Completion: exactly one of resume (sync) or deliver (async) is set.
	resume  *sim.Proc
	deliver *sim.Mailbox[Message]
	msg     Message
	done    *sim.Signal[struct{}] // optional, fired when an async chain ends
}

// Chain states, named for what RunTask does when dispatched in that state.
const (
	xsStart         = iota // deferred start (SendAsync): begin the chain
	xsEgressGranted        // egress units held: schedule serialization
	xsEgressDone           // serialization over: release egress, fly the wire
	xsLatencyDone          // off the wire: loss draw, then arrival
	xsDelayDone            // a late message lands: arrival
	xsIngressGrant         // ingress held: schedule final serialization
	xsFinal                // async epilogue: release, account, deliver
)

func (x *xfer) RunTask() {
	switch x.state {
	case xsStart:
		if x.src == x.dst {
			// Loopback is free and infallible: a node always reaches itself.
			x.complete()
			return
		}
		x.launch()
	case xsEgressGranted:
		x.state = xsEgressDone
		x.net.eng.ScheduleTask(x.exDur, x)
	case xsEgressDone:
		x.src.egress.Release(1)
		if x.resume != nil && x.faulty {
			// The sync caller takes the wire-done event itself (see the
			// file comment).
			x.net.eng.ResumeIn(x.net.cfg.Latency, x.resume)
			return
		}
		x.state = xsLatencyDone
		x.net.eng.ScheduleTask(x.net.cfg.Latency, x)
	case xsLatencyDone:
		lost, delay := x.landed()
		if lost {
			x.lose()
			return
		}
		if delay > 0 {
			x.state = xsDelayDone
			x.net.eng.ScheduleTask(delay, x)
			return
		}
		if !x.arrive() {
			x.lose()
		}
	case xsDelayDone:
		if !x.arrive() {
			x.lose()
		}
	case xsIngressGrant:
		if p := x.resume; p != nil {
			// Sync chain: hand the final serialization wait back to the
			// caller as its resume; it runs the epilogue itself.
			x.net.eng.ResumeIn(x.ixDur, p)
			return
		}
		x.state = xsFinal
		x.net.eng.ScheduleTask(x.ixDur, x)
	case xsFinal:
		x.dst.ingress.Release(1)
		x.net.traffic.Add(x.class, x.size)
		x.complete()
	}
}

// launch starts a remote chain: a message from a crashed sender never
// reaches the wire; otherwise it contends for the egress NIC, continuing
// inline on an immediate grant. Reports whether the message is still
// alive.
func (x *xfer) launch() bool {
	if x.faulty && x.net.faults.Down(x.src.id) {
		x.lose()
		return false
	}
	x.exDur = x.net.wireTime(x.size, x.src.id, x.faulty)
	x.state = xsEgressGranted
	if x.src.egress.AcquireTask(1, x) {
		x.RunTask()
	}
	return true
}

// landed draws a faulted message's fate as it comes off the wire: lost,
// or late by delay.
func (x *xfer) landed() (lost bool, delay sim.Time) {
	if !x.faulty {
		return false, 0
	}
	return x.net.faults.DropMessage(x.src.id, x.dst.id)
}

// arrive hands a message that made it across to the receiver's ingress
// NIC, reporting false if the receiver crashed while it was in flight:
// the bytes crossed the wire but nobody is listening.
func (x *xfer) arrive() bool {
	if x.faulty && x.net.faults.Down(x.dst.id) {
		return false
	}
	x.ixDur = x.net.wireTime(x.size, x.dst.id, x.faulty)
	x.state = xsIngressGrant
	if x.dst.ingress.AcquireTask(1, x) {
		x.RunTask()
	}
	return true
}

// lose records a message lost to a fault and ends its chain, firing the
// optional signal.
func (x *xfer) lose() {
	x.net.faults.NoteDropped(x.src.id, x.dst.id)
	done := x.done
	x.net.xferPut(x)
	if done != nil {
		done.Fire(struct{}{})
	}
}

// complete delivers the payload, fires the optional signal, and returns
// the chain to the pool.
func (x *xfer) complete() {
	deliver, msg, done := x.deliver, x.msg, x.done
	x.net.xferPut(x)
	deliver.Put(msg)
	if done != nil {
		done.Fire(struct{}{})
	}
}

// wireTime is the serialization time of size bytes through one of node's
// NICs, scaled by its fault factor when the transfer is faulted.
func (n *Network) wireTime(size int64, node int, faulty bool) sim.Time {
	bps := n.cfg.BytesPerSec
	if faulty {
		bps *= n.faults.NICFactor(node)
	}
	return sim.TransferTime(size, bps)
}

// newXfer takes a pooled chain for a remote transfer, sampling the fault
// layer's Active once for the whole transfer.
func (n *Network) newXfer(src, dst *Node, size int64, class metrics.TrafficClass) *xfer {
	x := n.xferGet()
	x.src, x.dst, x.size, x.class = src, dst, size, class
	x.faulty = n.faults != nil && n.faults.Active()
	return x
}

// carrySync carries size bytes from src to dst on behalf of the
// blocked process p, reporting whether they arrived; the caller delivers
// on true. Remote transfers only.
func (n *Network) carrySync(p *sim.Proc, src, dst *Node, size int64, class metrics.TrafficClass, verb string) bool {
	x := n.newXfer(src, dst, size, class)
	x.resume = p
	if !x.launch() {
		return false
	}
	p.Park(verb, nil)
	if x.faulty {
		// Resumed at wire done: draw the loss verdict here, in this event.
		lost, delay := x.landed()
		if !lost && delay > 0 {
			p.Sleep(delay)
		}
		if lost || !x.arrive() {
			x.lose()
			return false
		}
		p.Park(verb, nil)
	}
	dst.ingress.Release(1)
	n.traffic.Add(class, size)
	n.xferPut(x)
	return true
}

// startAsync launches a self-completing chain that Puts msg into deliver
// after the full pipeline. Callers on a process schedule nothing extra —
// the chain's first step runs inline in their current event.
func (n *Network) startAsync(src, dst *Node, size int64, class metrics.TrafficClass, deliver *sim.Mailbox[Message], msg Message) {
	x := n.newXfer(src, dst, size, class)
	x.deliver, x.msg = deliver, msg
	x.launch()
}

// Responder consumes an RPC response delivered by CallTask. An interface
// rather than a func so pooled caller state receives without allocating a
// closure per call.
type Responder interface {
	OnResponse(resp Message)
}

// callTask links one in-flight CallTask's reply mailbox to its Responder:
// when the response lands it re-pools the mailbox and itself, then hands
// the response over. Pooled per network.
type callTask struct {
	net   *Network
	reply *sim.Mailbox[Message]
	r     Responder
}

func (c *callTask) OnDelivery(resp Message) {
	n, reply, r := c.net, c.reply, c.r
	c.reply, c.r = nil, nil
	n.callFree = append(n.callFree, c)
	n.replyFree = append(n.replyFree, reply)
	r.OnResponse(resp)
}

// CallTask is the task-based construction of the fused Call: the request
// transfer runs as a task chain, and r.OnResponse runs inline in the event
// a process caller's reply wake-up would occupy — the whole RPC costs zero
// goroutine switches. Like Call it has no timeout: a request or response
// lost to an injected fault never reaches r.
func (n *Network) CallTask(msg Message, r Responder) {
	reply := n.acquireReply()
	msg.Reply = reply
	c := n.callGet()
	c.reply, c.r = reply, r
	reply.Expect(c)
	src, dst := n.Node(msg.From), n.Node(msg.To)
	if src == dst {
		dst.Port(msg.Port).Put(msg)
		return
	}
	n.startAsync(src, dst, msg.Size, msg.Class, dst.Port(msg.Port), msg)
}

func (n *Network) callGet() *callTask {
	if k := len(n.callFree); k > 0 {
		c := n.callFree[k-1]
		n.callFree[k-1] = nil
		n.callFree = n.callFree[:k-1]
		return c
	}
	return &callTask{net: n}
}

func (n *Network) xferGet() *xfer {
	if k := len(n.xferFree); k > 0 {
		x := n.xferFree[k-1]
		n.xferFree[k-1] = nil
		n.xferFree = n.xferFree[:k-1]
		return x
	}
	return &xfer{net: n}
}

// xferPut zeroes the chain (dropping payload references) and pools it.
func (n *Network) xferPut(x *xfer) {
	net := x.net
	*x = xfer{net: net}
	n.xferFree = append(n.xferFree, x)
}
