package sim

// This file is task dispatch: events that run inline on the engine
// goroutine instead of waking a process goroutine.
//
// A process event dispatch costs two channel rendezvous (engine→process,
// process→engine) and two goroutine context switches. Most events in an
// I/O-bound simulation do not need a process stack at all: a NIC finishing
// a timed segment, a resource grant, a mailbox handoff. Such steps run as
// a Tasker callback dispatched inline; a full process switch is left only
// where user code must block.
//
// # The event-parity invariant
//
// A task event advances the clock, increments the event count, and
// participates in foreground accounting exactly like a process event;
// only the dispatch mechanism differs. Task-chain constructions (simnet
// transfers, pfs request handlers) keep one event per modelled step, so
// replacing a process step by a task step — or the reverse — leaves the
// (at, seq) schedule, and with it every simulation output, unchanged.
// Frozen run digests (internal/experiments) and the simnet fault-parity
// table pin that schedule; DESIGN.md §11 walks through one PFS RPC.

// Tasker is an inline event handler. RunTask executes on the engine
// goroutine when the task's event dispatches; it must not block (no
// park-style waits) but may schedule further tasks, resume parked
// processes, fire signals, and put into mailboxes.
type Tasker interface{ RunTask() }

// Named is anything with a lazily formatted diagnostic name. Parked
// processes record the object they block on as a Named so hot paths never
// format a name that only a deadlock report would read.
type Named interface{ Name() string }

// ScheduleTask enqueues t to run after d simulated time (clamped at zero).
// The event counts as foreground work, exactly like a scheduled process
// wake-up: Run keeps dispatching until it fires.
func (e *Engine) ScheduleTask(d Time, t Tasker) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.fg++
	e.pushEvent(event{at: e.now + d, seq: e.seq, who: t})
}

// ResumeIn schedules a wake-up for p after d simulated time (clamped at
// zero). It is the task-side half of a park/resume pair: a process calls
// Park after arranging — via a task chain — for exactly one ResumeIn to
// reach it. Resuming a process that is not parked, or scheduling a second
// wake-up for one, corrupts the simulation; only task chains should call
// this.
func (e *Engine) ResumeIn(d Time, p *Proc) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, p)
}
