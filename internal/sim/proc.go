package sim

import "strconv"

// Proc is the handle a process uses to interact with the simulation. All
// Proc methods must be called from the process's own function; passing a
// Proc to another goroutine is a programming error.
type Proc struct {
	eng    *Engine
	name   string
	id     uint64 // spawn ordinal of the current occupant, for lazy naming
	wake   chan struct{}
	fn     func(p *Proc)
	done   bool
	daemon bool

	// Parked state, kept on the Proc instead of an engine-side map so
	// dispatching an event is map-free and Shutdown can unwind processes
	// in creation order. The (verb, object) pair is only read by deadlock
	// reports; keeping the object as a Named defers name formatting off
	// the hot path entirely.
	parked bool
	rverb  string
	robj   Named
}

// Name returns the diagnostic name given at Spawn, or a lazily formatted
// "proc-<n>" for processes spawned without one. The formatting cost is
// paid only when a diagnostic actually reads the name.
func (p *Proc) Name() string {
	if p.name == "" {
		return "proc-" + strconv.FormatUint(p.id, 10)
	}
	return p.name
}

// reason formats what the process is blocked on, for deadlock reports.
func (p *Proc) reason() string {
	if p.robj == nil {
		return p.rverb
	}
	return p.rverb + " " + p.robj.Name()
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park returns control to the engine and blocks until the engine delivers
// the next wake-up for this process. The (verb, obj) pair is recorded for
// deadlock diagnostics; obj may be nil.
func (p *Proc) park(verb string, obj Named) {
	p.parked, p.rverb, p.robj = true, verb, obj
	p.eng.yield <- struct{}{}
	<-p.wake
	if p.eng.stopping {
		panic(shutdownSentinel{})
	}
}

// Park blocks the process until a matching Engine.ResumeIn wake-up
// arrives. It is the process-side half of a task chain: callers must
// have arranged, before parking, for exactly one resume to reach them
// (e.g. a simnet transfer chain that ends in ResumeIn). The (verb, obj)
// pair feeds deadlock diagnostics; obj may be nil.
func (p *Proc) Park(verb string, obj Named) { p.park(verb, obj) }

// Sleep advances this process by d simulated time. Negative durations are
// treated as zero; a zero sleep still yields to other processes scheduled
// at the same instant (FIFO order is preserved).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now+d, p)
	p.park("sleep", nil)
}

// Spawn starts a child process at the current simulated time. It is a
// convenience wrapper over Engine.Spawn.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.eng.Spawn(name, fn)
}
