package pfs

import (
	"errors"
	"fmt"

	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// This file is the PFS request handler: a pooled task chain that serves a
// request in one event per step — handler start, disk grant, disk
// completion, response transfer — instead of a per-request child process
// (DESIGN.md §11 traces one read RPC hop by hop).
//
// Every request whose handler is straight-line — validate, at most one
// disk pass, respond — runs as a chain, under faults as well as without:
// reads, single and batched; writes that forward no foreign replicas; and
// unknown requests, which fail validation. Requests arrive either as
// pooled pointers (fault-free clients) or as boxed values (clients under
// faults, which may resend one request). Replica-forwarding writes and
// migrations issue RPCs of their own, so they keep a handler process
// (Server.handle); the dispatcher decides per message.

// reqTask chain states, named for what RunTask does when dispatched.
const (
	rsStart       = iota // handler start: validate and contend for the disk
	rsDiskGranted        // drive held: schedule the service time
	rsDiskDone           // service over: release drive, account, respond
)

type reqTask struct {
	s     *Server
	state int
	msg   simnet.Message

	diskDur  sim.Time
	isRead   bool  // which Finish* accounts the disk pass
	diskSize int64 // bytes through the disk; 0 skips the disk entirely

	payload  any   // prepared response
	respSize int64 // wire size of the response
}

func (x *reqTask) RunTask() {
	switch x.state {
	case rsStart:
		x.begin()
	case rsDiskGranted:
		x.state = rsDiskDone
		x.s.fs.clu.Eng.ScheduleTask(x.diskDur, x)
	case rsDiskDone:
		d := x.s.fs.clu.Disk(x.s.nodeID)
		if x.isRead {
			d.FinishRead(x.diskSize)
		} else {
			d.FinishWrite(x.diskSize)
		}
		x.respond()
	}
}

// begin validates the request and prepares the response before the
// first disk wait, then contends for the drive. Requests that touch no
// disk bytes (validation errors, empty ranges) respond directly from this
// event.
func (x *reqTask) begin() {
	s := x.s
	var err error
	switch req := x.msg.Payload.(type) {
	case readReq:
		err = x.prepRead(req)
	case *readReq:
		r := *req
		s.fs.readReqPut(req)
		err = x.prepRead(r)
	case readManyReq:
		data := make([][]byte, len(req.Spans))
		var total int64
		for i, sp := range req.Spans {
			d, perr := s.peek(req.File, sp.Strip, sp.Lo, sp.Hi)
			if perr != nil {
				x.fail(perr)
				return
			}
			data[i] = d
			total += int64(len(d))
		}
		x.isRead, x.diskSize = true, total
		x.payload, x.respSize = readManyResp{Data: data}, headerBytes+total
	case writeReq:
		err = x.prepWrite(req)
	case *writeReq:
		r := *req
		s.fs.writeReqPut(req)
		err = x.prepWrite(r)
	case writeManyReq:
		var total int64
		if total, err = s.validateWriteMany(req.File, req.Strips, req.Data); err == nil {
			for i, strip := range req.Strips {
				s.storePut(req.File, strip, req.Data[i])
			}
			x.isRead, x.diskSize = false, total
			x.payload, x.respSize = ackResp{}, headerBytes
		}
	default:
		x.payload = errResp{Err: fmt.Sprintf("unknown request %T", x.msg.Payload), Code: codeBadRequest}
		x.respSize = headerBytes
	}
	if err != nil {
		x.fail(err)
		return
	}
	if x.diskSize <= 0 {
		x.respond()
		return
	}
	d := s.fs.clu.Disk(s.nodeID)
	if x.isRead {
		x.diskDur = d.ReadTime(x.diskSize)
	} else {
		x.diskDur = d.WriteTime(x.diskSize)
	}
	x.state = rsDiskGranted
	if d.AcquireTask(x) {
		x.RunTask()
	}
}

// prepRead copies the requested range out of the store and stages the
// read response.
func (x *reqTask) prepRead(req readReq) error {
	data, err := x.s.peek(req.File, req.Strip, req.Lo, req.Hi)
	if err != nil {
		return err
	}
	x.isRead, x.diskSize = true, int64(len(data))
	r := x.s.fs.readRespGet()
	r.Data = data
	x.payload, x.respSize = r, headerBytes+int64(len(data))
	return nil
}

// prepWrite validates and stores a single-strip write and stages the ack.
func (x *reqTask) prepWrite(req writeReq) error {
	if err := x.s.validateWrite(req.File, req.Strip, req.Data); err != nil {
		return err
	}
	x.s.storePut(req.File, req.Strip, req.Data)
	x.isRead, x.diskSize = false, int64(len(req.Data))
	x.payload, x.respSize = ackResp{}, headerBytes
	return nil
}

func (x *reqTask) fail(err error) {
	code := codeInternal
	if errors.Is(err, errNotHeld) {
		code = codeNotFound
	}
	x.payload, x.respSize = errResp{Err: err.Error(), Code: code}, headerBytes
	x.respond()
}

// respond launches the response transfer and pools the chain.
func (x *reqTask) respond() {
	s, msg, payload, size := x.s, x.msg, x.payload, x.respSize
	s.taskPut(x)
	s.fs.clu.Net.RespondTask(msg, payload, size, s.fs.clu.ClassBetween(s.nodeID, msg.From))
}

// dispatch is the port's inline message handler. Per message it either
// schedules a reqTask chain or spawns the handler process, both at a
// zero-delay event: the request's handler start.
func (s *Server) dispatch(msg simnet.Message) {
	s.reqs++
	if s.chainable(msg.Payload) {
		x := s.taskGet()
		x.msg = msg
		x.state = rsStart
		s.fs.clu.Eng.ScheduleTask(0, x)
		return
	}
	s.fs.clu.Eng.Spawn(s.handlerName(), func(h *sim.Proc) {
		s.handle(h, msg)
	})
}

// chainable reports whether a request's handler is straight-line and can
// therefore run as a reqTask chain: everything but migrations and writes
// that forward replicas to other servers.
func (s *Server) chainable(payload any) bool {
	switch req := payload.(type) {
	case migrateReq:
		return false
	case writeReq:
		return !req.Forward || s.replicasAllLocal(req.File, req.Strip)
	case *writeReq:
		return !req.Forward || s.replicasAllLocal(req.File, req.Strip)
	case writeManyReq:
		if !req.Forward {
			return true
		}
		for _, strip := range req.Strips {
			if !s.replicasAllLocal(req.File, strip) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// replicasAllLocal reports whether a strip's replica set names no server
// but this one, i.e. a Forward write would push nothing. Unknown files
// count as local: their writes fail validation before forwarding.
func (s *Server) replicasAllLocal(file string, strip int64) bool {
	m, ok := s.fs.meta[file]
	if !ok {
		return true
	}
	for _, rep := range m.Layout.Replicas(strip) {
		if rep != s.srv {
			return false
		}
	}
	return true
}

func (s *Server) taskGet() *reqTask {
	if k := len(s.taskFree); k > 0 {
		x := s.taskFree[k-1]
		s.taskFree[k-1] = nil
		s.taskFree = s.taskFree[:k-1]
		return x
	}
	return &reqTask{s: s}
}

// taskPut zeroes the chain (dropping payload references) and pools it.
func (s *Server) taskPut(x *reqTask) {
	*x = reqTask{s: s}
	s.taskFree = append(s.taskFree, x)
}
