package pfs

import (
	"fmt"

	"github.com/hpcio/das/internal/simnet"
)

// Task-based client calls: the caller-side counterpart of the request
// chain. A process client pays a goroutine park per RPC — the one event a
// fused Call leaves as a process wake-up. ReadStripFromTask and WriteStripToTask move that last event to
// a task too: the continuation runs inline when the response lands, in
// exactly the (at, seq) the process caller's wake-up would occupy, so a
// task-based client simulates byte-identically to a process client while
// touching no goroutine at all.
//
// These are fault-free primitives: no retry, no failover, no timeout.
// Callers check AsyncOK first and fall back to the process APIs when it
// reports false (faults have activated).

// AsyncOK reports whether task-based client calls are available: the
// fault layer has never been active.
func (fs *FileSystem) AsyncOK() bool {
	return !fs.clu.Faults.Active()
}

// readCall is one in-flight ReadStripFromTask; pooled on the filesystem.
type readCall struct {
	fs    *FileSystem
	file  string
	strip int64
	srv   int
	cont  func(data []byte, err error)
}

func (rc *readCall) OnResponse(resp simnet.Message) {
	fs, cont := rc.fs, rc.cont
	file, strip, srv := rc.file, rc.strip, rc.srv
	rc.file, rc.cont = "", nil
	fs.readCallFree = append(fs.readCallFree, rc)
	switch r := resp.Payload.(type) {
	case *readResp:
		data := r.Data
		r.Data = nil
		fs.readRespPut(r)
		cont(data, nil)
	case errResp:
		cont(nil, respError(r, fmt.Sprintf("pfs: read %s strip %d from server %d", file, strip, srv)))
	default:
		cont(nil, unexpectedResponse(resp.Payload, fmt.Sprintf("pfs: read %s strip %d from server %d", file, strip, srv)))
	}
}

// ReadStripFromTask is the task-based ReadStripFrom: it issues the read
// RPC as a transfer chain and runs cont inline when the response lands.
// The caller should pass a long-lived cont (a stored method value), not a
// fresh closure per call, to keep the per-RPC path allocation-free.
func (fs *FileSystem) ReadStripFromTask(fromID, srv int, file string, strip, lo, hi int64, cont func(data []byte, err error)) {
	rc := fs.readCallGet()
	rc.file, rc.strip, rc.srv, rc.cont = file, strip, srv, cont
	req := fs.readReqGet()
	*req = readReq{File: file, Strip: strip, Lo: lo, Hi: hi}
	fs.callTask(fromID, srv, req, headerBytes, rc)
}

// writeCall is one in-flight WriteStripToTask; pooled on the filesystem.
type writeCall struct {
	fs    *FileSystem
	file  string
	strip int64
	srv   int
	cont  func(err error)
}

func (wc *writeCall) OnResponse(resp simnet.Message) {
	fs, cont := wc.fs, wc.cont
	file, strip, srv := wc.file, wc.strip, wc.srv
	wc.file, wc.cont = "", nil
	fs.writeCallFree = append(fs.writeCallFree, wc)
	switch r := resp.Payload.(type) {
	case ackResp:
		cont(nil)
	case errResp:
		cont(respError(r, fmt.Sprintf("pfs: write %s strip %d to server %d", file, strip, srv)))
	default:
		cont(unexpectedResponse(resp.Payload, fmt.Sprintf("pfs: write %s strip %d to server %d", file, strip, srv)))
	}
}

// WriteStripToTask is the task-based WriteStripTo: it issues the write
// RPC as a transfer chain and runs cont inline when the ack lands. Same
// continuation discipline as ReadStripFromTask.
func (fs *FileSystem) WriteStripToTask(fromID, srv int, file string, strip int64, data []byte, forward bool, cont func(err error)) {
	wc := fs.writeCallGet()
	wc.file, wc.strip, wc.srv, wc.cont = file, strip, srv, cont
	req := fs.writeReqGet()
	*req = writeReq{File: file, Strip: strip, Data: data, Forward: forward}
	fs.callTask(fromID, srv, req, headerBytes+int64(len(data)), wc)
}

// callTask builds the request message exactly as the process-based call
// does and hands it to the network's task-based fused call.
func (fs *FileSystem) callTask(fromID, srv int, payload any, size int64, r simnet.Responder) {
	toID := fs.clu.StorageID(srv)
	fs.clu.Net.CallTask(simnet.Message{
		From:    fromID,
		To:      toID,
		Port:    Port,
		Size:    size,
		Class:   fs.clu.ClassBetween(fromID, toID),
		Payload: payload,
	}, r)
}

func (fs *FileSystem) readCallGet() *readCall {
	if k := len(fs.readCallFree); k > 0 {
		rc := fs.readCallFree[k-1]
		fs.readCallFree[k-1] = nil
		fs.readCallFree = fs.readCallFree[:k-1]
		return rc
	}
	return &readCall{fs: fs}
}

func (fs *FileSystem) readReqGet() *readReq {
	if k := len(fs.readReqFree); k > 0 {
		r := fs.readReqFree[k-1]
		fs.readReqFree[k-1] = nil
		fs.readReqFree = fs.readReqFree[:k-1]
		return r
	}
	return new(readReq)
}

func (fs *FileSystem) readReqPut(r *readReq) {
	*r = readReq{}
	fs.readReqFree = append(fs.readReqFree, r)
}

func (fs *FileSystem) writeReqGet() *writeReq {
	if k := len(fs.writeReqFree); k > 0 {
		r := fs.writeReqFree[k-1]
		fs.writeReqFree[k-1] = nil
		fs.writeReqFree = fs.writeReqFree[:k-1]
		return r
	}
	return new(writeReq)
}

func (fs *FileSystem) writeReqPut(r *writeReq) {
	*r = writeReq{}
	fs.writeReqFree = append(fs.writeReqFree, r)
}

func (fs *FileSystem) readRespGet() *readResp {
	if k := len(fs.readRespFree); k > 0 {
		r := fs.readRespFree[k-1]
		fs.readRespFree[k-1] = nil
		fs.readRespFree = fs.readRespFree[:k-1]
		return r
	}
	return new(readResp)
}

func (fs *FileSystem) readRespPut(r *readResp) {
	r.Data = nil
	fs.readRespFree = append(fs.readRespFree, r)
}

func (fs *FileSystem) writeCallGet() *writeCall {
	if k := len(fs.writeCallFree); k > 0 {
		wc := fs.writeCallFree[k-1]
		fs.writeCallFree[k-1] = nil
		fs.writeCallFree = fs.writeCallFree[:k-1]
		return wc
	}
	return &writeCall{fs: fs}
}
