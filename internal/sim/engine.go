package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Engine drives a simulation: it owns the virtual clock, the event queue,
// and the set of live processes. Create one with NewEngine, spawn processes
// with Spawn, then call Run.
//
// The Engine is not safe for concurrent use from multiple goroutines other
// than through the Proc handles it manages itself.
type Engine struct {
	now   Time
	seq   uint64
	queue *calendarQueue

	// ring is the due-now FIFO, a fast lane in front of the calendar
	// queue: an event scheduled with zero delay dispatches at the current
	// timestamp, strictly after every queue-resident event at that same
	// timestamp (those were pushed earlier, so they hold smaller seqs —
	// zero-delay pushes at the current instant can only come from code
	// running at it). Appending here and draining FIFO therefore preserves
	// the exact (at, seq) total order while skipping the priority queue
	// for the majority of events on RPC hot paths: mailbox handoffs,
	// resource grants, response deliveries. ringHead indexes the first
	// undrained entry; the slice resets (retaining capacity) when drained.
	ring     []event
	ringHead int

	// yield is the rendezvous channel on which the currently running
	// process returns control to the engine.
	yield chan struct{}

	live int // processes spawned and not yet finished
	fg   int // queued foreground events (everything but daemon timers)

	// procs is every Proc ever created, in creation order. Parked state
	// lives on the Proc itself (see Proc.parked), so dispatching an event
	// touches no map, and Shutdown unwinds in this deterministic order.
	procs []*Proc

	panicVal any // panic captured from a process, re-raised by Run

	stopping bool // Shutdown in progress: parked processes unwind and exit

	spawned uint64 // total processes ever spawned (for naming and stats)
	events  uint64 // total events dispatched (for stats)

	// procFree recycles finished processes: the Proc struct, its wake
	// channel, and — because each pooled Proc's goroutine parks in procLoop
	// instead of exiting — the goroutine itself. Spawning from the pool
	// therefore costs no allocation, which matters on hot paths that fork a
	// child per message.
	procFree []*Proc
}

// shutdownSentinel unwinds a process's stack during Shutdown. It is
// recovered by the spawn wrapper and never escapes the engine.
type shutdownSentinel struct{}

// NewEngine returns an engine with the clock at zero and no processes.
func NewEngine() *Engine {
	return &Engine{
		yield: make(chan struct{}),
		queue: newCalendarQueue(),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events dispatched so far. Two runs of the
// same deterministic simulation dispatch identical event counts; a task
// event counts exactly like a process wake-up.
func (e *Engine) Events() uint64 { return e.events }

// Live returns the number of processes that have been spawned and have not
// yet returned.
func (e *Engine) Live() int { return e.live }

// schedule enqueues a wake-up for p at time at (which must be >= now).
func (e *Engine) schedule(at Time, p *Proc) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", at, e.now))
	}
	e.seq++
	e.fg++
	e.pushEvent(event{at: at, seq: e.seq, who: p})
}

// pushEvent routes a new event to the due-now ring when it dispatches at
// the current instant, to the calendar queue otherwise.
func (e *Engine) pushEvent(ev event) {
	if ev.at == e.now {
		e.ring = append(e.ring, ev)
		return
	}
	e.queue.push(ev)
}

// pending returns the number of undispatched events across the queue and
// the ring.
func (e *Engine) pending() int {
	return e.queue.Len() + len(e.ring) - e.ringHead
}

// nextEvent removes and returns the next event in (at, seq) order. Queue
// events due at the current instant precede the ring (they were pushed
// before the clock reached it, so their seqs are smaller); otherwise the
// ring drains FIFO, which is seq order among its entries.
func (e *Engine) nextEvent() event {
	if e.ringHead < len(e.ring) && !e.queue.due(e.now) {
		ev := e.ring[e.ringHead]
		e.ring[e.ringHead] = event{} // drop references for the GC
		e.ringHead++
		if e.ringHead == len(e.ring) {
			e.ring, e.ringHead = e.ring[:0], 0
		}
		return ev
	}
	return e.queue.pop()
}

// Timer is a pending AfterFunc callback. Stop cancels it; a canceled timer
// is skipped by the dispatch loop without advancing the clock or counting
// as an event, so cancellation leaves no trace in the simulation.
type Timer struct {
	fn       func()
	canceled bool
	fired    bool
	daemon   bool
}

// Stop cancels the timer and reports whether it was still pending. Stop
// must not be called again after the callback has run and the handle has
// been discarded.
func (t *Timer) Stop() bool {
	if t.fired || t.canceled {
		return false
	}
	t.canceled = true
	return true
}

// Fired reports whether the callback has run.
func (t *Timer) Fired() bool { return t.fired }

// AfterFunc schedules fn to run on the engine goroutine after d simulated
// time. The callback may schedule processes, fire signals, or put into
// mailboxes, but must not block. A pending AfterFunc counts as foreground
// work: Run keeps dispatching until it fires or is stopped.
func (e *Engine) AfterFunc(d Time, fn func()) *Timer {
	return e.afterFunc(d, fn, false)
}

// AfterFuncDaemon is AfterFunc for background callbacks: like daemon
// processes, a pending daemon timer does not keep Run alive. If the event
// queue drains to daemon timers only, Run returns and the callbacks stay
// queued for a later Run (or are dropped with the engine). Fault-injection
// plans use this so trailing fault events never extend a measured run.
func (e *Engine) AfterFuncDaemon(d Time, fn func()) *Timer {
	return e.afterFunc(d, fn, true)
}

func (e *Engine) afterFunc(d Time, fn func(), daemon bool) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{fn: fn, daemon: daemon}
	e.seq++
	if !daemon {
		e.fg++
	}
	e.pushEvent(event{at: e.now + d, seq: e.seq, who: t})
	return t
}

// Spawn creates a new process running fn and schedules it to start at the
// current simulated time. It may be called before Run or from inside a
// running process. The name is used in diagnostics only; an empty name
// formats lazily as "proc-<n>" if a diagnostic ever needs it.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon creates a server-style process that is expected to outlive
// the workload: Run neither waits for it nor reports it as deadlocked when
// the event queue drains while it is parked (e.g. waiting for the next
// request on a mailbox).
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	e.spawned++
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
		p.name, p.id, p.fn, p.daemon, p.done = name, e.spawned, fn, daemon, false
	} else {
		p = &Proc{
			eng:    e,
			name:   name,
			id:     e.spawned,
			wake:   make(chan struct{}),
			daemon: daemon,
			fn:     fn,
		}
		e.procs = append(e.procs, p)
		go procLoop(p)
	}
	if !daemon {
		e.live++
	}
	p.parked, p.rverb, p.robj = true, "start", nil
	e.schedule(e.now, p)
	return p
}

// procLoop is the body of every process goroutine. After the process
// function returns, the goroutine parks and the Proc joins the engine's
// free list for the next spawn, so process churn costs no allocations.
// During Shutdown the loop exits instead, letting the goroutine die.
func procLoop(p *Proc) {
	e := p.eng
	for {
		<-p.wake // wait to be scheduled for the first time (or recycled)
		if e.stopping && p.fn == nil {
			// Woken from the free list during Shutdown: just exit.
			e.yield <- struct{}{}
			return
		}
		runProcFn(p)
		if !p.daemon {
			e.live--
		}
		p.done = true
		p.fn = nil
		stop := e.stopping || e.panicVal != nil
		if !stop {
			e.procFree = append(e.procFree, p)
		}
		e.yield <- struct{}{}
		if stop {
			return
		}
	}
}

// runProcFn runs the process function, containing panics: the shutdown
// sentinel is swallowed (it only unwinds the stack), anything else is
// recorded for Run to re-raise.
func runProcFn(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, isShutdown := r.(shutdownSentinel); !isShutdown {
				p.eng.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
			}
		}
	}()
	if p.eng.stopping {
		return
	}
	p.fn(p)
}

// Run dispatches events until no foreground work remains: the queue is
// empty, or only daemon timers are left. It returns an error if processes
// remain blocked with no pending events (a deadlock), listing the stuck
// processes and what they are waiting on. If a process panicked, Run
// re-raises the panic on the caller's goroutine.
func (e *Engine) Run() error {
	for e.pending() > 0 && e.fg > 0 {
		ev := e.nextEvent()
		switch who := ev.who.(type) {
		case *Timer:
			if !who.daemon {
				e.fg--
			}
			if who.canceled {
				continue // no clock advance, no event counted
			}
			e.now = ev.at
			e.events++
			who.fired = true
			who.fn()
		case *Proc:
			e.fg--
			e.now = ev.at
			e.events++
			who.parked = false
			who.wake <- struct{}{}
			<-e.yield
			if e.panicVal != nil {
				panic(e.panicVal)
			}
		case Tasker:
			// A task event is accounted exactly like a process event but
			// runs inline: no channel rendezvous, no goroutine switch.
			e.fg--
			e.now = ev.at
			e.events++
			who.RunTask()
		}
	}
	if e.live > 0 {
		return &DeadlockError{Time: e.now, Stuck: e.stuckList()}
	}
	return nil
}

func (e *Engine) stuckList() []string {
	var stuck []string
	for _, p := range e.procs {
		if !p.parked || p.daemon || p.done {
			continue
		}
		stuck = append(stuck, fmt.Sprintf("%s (%s)", p.Name(), p.reason()))
	}
	sort.Strings(stuck)
	return stuck
}

// Shutdown terminates every parked process — daemons waiting for requests
// as well as any stragglers — so their goroutines exit and the simulation's
// memory becomes collectible. Processes unwind in creation order, so
// teardown traces are reproducible run to run. A simulation cannot be used
// after Shutdown. It is safe to call multiple times.
func (e *Engine) Shutdown() {
	e.stopping = true
	for progress := true; progress; {
		progress = false
		for _, p := range e.procs {
			if !p.parked {
				continue
			}
			// Wake the parked process; its park() observes stopping and
			// unwinds via the sentinel panic, which the spawn wrapper
			// recovers before yielding back here. Unwinding (deferred
			// functions) may park further processes, so sweep until a full
			// pass finds nothing parked.
			p.parked = false
			p.wake <- struct{}{}
			<-e.yield
			progress = true
		}
	}
	// Drain the free list so pooled goroutines exit too.
	for _, p := range e.procFree {
		p.wake <- struct{}{}
		<-e.yield
	}
	e.procFree = nil
}

// DeadlockError reports processes that were still blocked when the event
// queue drained.
type DeadlockError struct {
	Time  Time
	Stuck []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %s",
		d.Time, len(d.Stuck), strings.Join(d.Stuck, ", "))
}
