package pfs

import (
	"errors"
	"fmt"

	"github.com/hpcio/das/internal/sim"
	"github.com/hpcio/das/internal/simnet"
)

// Protocol payloads exchanged on the pfs port. Responses travel back over
// the Reply mailbox embedded in the request message.
type (
	readReq struct {
		File   string
		Strip  int64
		Lo, Hi int64 // byte sub-range within the strip; Hi == 0 → whole strip
	}
	// readManyReq fetches several spans of one file in a single request.
	// The server charges its disk one sequential read for the whole batch:
	// a data server stores its strips of a file contiguously, so a bulk
	// read pays one positioning cost, not one per strip.
	readManyReq struct {
		File  string
		Spans []Span
	}
	writeReq struct {
		File    string
		Strip   int64
		Data    []byte
		Forward bool // forward copies to the strip's replica holders
	}
	// writeManyReq stores several whole strips in a single request, with
	// one sequential disk write, forwarding replicas per strip if asked.
	writeManyReq struct {
		File    string
		Strips  []int64
		Data    [][]byte
		Forward bool
	}
	migrateReq struct {
		File    string
		Strip   int64
		Targets []int
	}
	readResp     struct{ Data []byte }
	readManyResp struct{ Data [][]byte }
	ackResp      struct{}
	errResp      struct {
		Err  string
		Code errCode
	}
)

// Span addresses bytes [Lo, Hi) within one strip (relative to the strip's
// start). Hi == 0 selects the whole strip.
type Span struct {
	Strip  int64
	Lo, Hi int64
}

// Server is one PFS data server on a storage node: it owns a disk and an
// in-memory strip store and serves the pfs port. Each request is handled
// on its own chain or handler process (a thread-pool model), so a slow
// disk or a busy NIC queues requests on the physical resource rather than
// on the service loop — the contention the paper's NAS analysis is about.
type Server struct {
	fs     *FileSystem
	srv    int // dense server index
	nodeID int
	store  map[string]map[int64][]byte
	reqs   uint64

	// lastFile/lastStrips cache the most recent store hit: requests on a
	// busy server overwhelmingly name the same file, and the string-keyed
	// map lookup (hash + compare per request) is measurable at scale.
	// Inner maps are created once and mutated in place, never replaced,
	// so a cached reference stays valid.
	lastFile   string
	lastStrips map[int64][]byte

	// hname is the handler diagnostic name, formatted on first use.
	hname string
	// taskFree recycles request chains (fasthandler.go).
	taskFree []*reqTask
}

func newServer(fs *FileSystem, srv int) *Server {
	return &Server{
		fs:     fs,
		srv:    srv,
		nodeID: fs.clu.StorageID(srv),
		store:  make(map[string]map[int64][]byte),
	}
}

// Index returns the server's dense index.
func (s *Server) Index() int { return s.srv }

// NodeID returns the cluster node the server runs on.
func (s *Server) NodeID() int { return s.nodeID }

// Requests returns the number of requests received so far.
func (s *Server) Requests() uint64 { return s.reqs }

// handlerName returns the per-server handler diagnostic name, formatted
// once on first use: a per-request formatted name would allocate on every
// message, and even per-server formatting is deferred so building a
// five-thousand-server cluster pays nothing for names diagnostics may
// never read.
func (s *Server) handlerName() string {
	if s.hname == "" {
		s.hname = fmt.Sprintf("pfs-server-%d-req", s.srv)
	}
	return s.hname
}

// start installs the dispatcher on the server's port: each delivered
// message reaches dispatch inline, and its initial drain task is the
// server's start event.
func (s *Server) start() {
	s.fs.clu.Net.Node(s.nodeID).Port(Port).SetDispatcher(s.dispatch)
}

// handle serves the requests whose handlers issue RPCs of their own —
// replica-forwarding writes and migrations — on a handler process.
func (s *Server) handle(p *sim.Proc, msg simnet.Message) {
	respond := func(payload any, size int64) {
		s.fs.clu.Net.Respond(p, msg, payload, size, s.fs.clu.ClassBetween(s.nodeID, msg.From))
	}
	var err error
	switch req := msg.Payload.(type) {
	case writeReq:
		err = s.LocalWrite(p, req.File, req.Strip, req.Data, req.Forward)
	case *writeReq:
		r := *req
		s.fs.writeReqPut(req)
		err = s.LocalWrite(p, r.File, r.Strip, r.Data, r.Forward)
	case writeManyReq:
		err = s.LocalWriteMany(p, req.File, req.Strips, req.Data, req.Forward)
	case migrateReq:
		err = s.migrate(p, req)
	default:
		panic(fmt.Sprintf("pfs: %T routed to the handler process", msg.Payload))
	}
	if err != nil {
		code := codeInternal
		if errors.Is(err, errNotHeld) {
			code = codeNotFound
		}
		respond(errResp{Err: err.Error(), Code: code}, headerBytes)
		return
	}
	respond(ackResp{}, headerBytes)
}

// stripsOf returns the strip map for file, through the one-entry cache.
func (s *Server) stripsOf(file string) (map[int64][]byte, bool) {
	if file == s.lastFile && s.lastStrips != nil {
		return s.lastStrips, true
	}
	strips, ok := s.store[file]
	if ok {
		s.lastFile, s.lastStrips = file, strips
	}
	return strips, ok
}

// Holds reports whether the server currently stores a copy of the strip.
func (s *Server) Holds(file string, strip int64) bool {
	strips, ok := s.stripsOf(file)
	if !ok {
		return false
	}
	_, ok = strips[strip]
	return ok
}

// peek copies bytes [lo, hi) of a locally held strip without charging the
// disk; callers batch the disk charge.
func (s *Server) peek(file string, strip, lo, hi int64) ([]byte, error) {
	strips, ok := s.stripsOf(file)
	if !ok {
		return nil, fmt.Errorf("server %d holds no strips of %q: %w", s.srv, file, errNotHeld)
	}
	data, ok := strips[strip]
	if !ok {
		return nil, fmt.Errorf("server %d does not hold %q strip %d: %w", s.srv, file, strip, errNotHeld)
	}
	if hi == 0 {
		hi = int64(len(data))
	}
	if lo < 0 || hi > int64(len(data)) || lo > hi {
		return nil, fmt.Errorf("range [%d,%d) outside strip of %d bytes", lo, hi, len(data))
	}
	out := AcquireBuffer(hi - lo)
	copy(out, data[lo:hi])
	//das:transfer -- the strip copy rides the response message; the final consumer releases it
	return out, nil
}

// LocalRead is the local I/O API from the paper's architecture (Fig. 2):
// it reads bytes [lo, hi) of a locally held strip through the node's disk,
// without touching the network. Hi == 0 selects the whole strip. The
// returned slice is a pool-backed copy: the final consumer may hand it to
// ReleaseBuffer to recycle it.
func (s *Server) LocalRead(p *sim.Proc, file string, strip, lo, hi int64) ([]byte, error) {
	data, err := s.peek(file, strip, lo, hi)
	if err != nil {
		return nil, err
	}
	s.fs.clu.Disk(s.nodeID).Read(p, int64(len(data)))
	return data, nil
}

// LocalReadMany reads several spans of one file with a single sequential
// disk pass: one positioning cost plus the batch's total bytes. A data
// server keeps its strips of a file contiguous on disk, so this is how a
// bulk read actually behaves. Each returned chunk is a pool-backed copy
// the final consumer may pass to ReleaseBuffer.
func (s *Server) LocalReadMany(p *sim.Proc, file string, spans []Span) ([][]byte, error) {
	out := make([][]byte, len(spans))
	var total int64
	for i, sp := range spans {
		data, err := s.peek(file, sp.Strip, sp.Lo, sp.Hi)
		if err != nil {
			return nil, err
		}
		out[i] = data
		total += int64(len(data))
	}
	s.fs.clu.Disk(s.nodeID).Read(p, total)
	return out, nil
}

// LocalWrite stores a strip copy through the node's disk. With forward
// set, the server pushes copies to the strip's replica holders under the
// file's current layout — the write path that materializes the improved
// distribution's boundary replicas.
func (s *Server) LocalWrite(p *sim.Proc, file string, strip int64, data []byte, forward bool) error {
	if err := s.validateWrite(file, strip, data); err != nil {
		return err
	}
	m := s.fs.meta[file]
	s.storePut(file, strip, data)
	s.fs.clu.Disk(s.nodeID).Write(p, int64(len(data)))
	if !forward {
		return nil
	}
	for _, rep := range m.Layout.Replicas(strip) {
		if rep == s.srv {
			continue
		}
		if err := s.fs.WriteStripTo(p, s.nodeID, rep, file, strip, data, false); err != nil {
			if errors.Is(err, ErrServerDown) || errors.Is(err, ErrTimeout) {
				// Best-effort replication under faults: a down replica
				// target loses this copy rather than failing the write. The
				// primary copy is durable; DESIGN.md documents the
				// divergence window.
				s.fs.clu.Recovery.AddSkippedForward()
				continue
			}
			return err
		}
	}
	return nil
}

// LocalWriteMany stores several whole strips with one sequential disk
// write, then forwards replica copies batched per target server.
func (s *Server) LocalWriteMany(p *sim.Proc, file string, strips []int64, data [][]byte, forward bool) error {
	total, err := s.validateWriteMany(file, strips, data)
	if err != nil {
		return err
	}
	for i, strip := range strips {
		s.storePut(file, strip, data[i])
	}
	s.fs.clu.Disk(s.nodeID).Write(p, total)
	if !forward {
		return nil
	}
	return s.ForwardReplicas(p, file, strips, data)
}

// ForwardReplicas pushes copies of the given strips to their replica
// holders under the file's current layout, batched per target server. It
// is called synchronously from replica-maintaining writes; active storage
// runs call it on a child process to overlap replication with the next
// run's disk and compute work (lazy replication).
func (s *Server) ForwardReplicas(p *sim.Proc, file string, strips []int64, data [][]byte) error {
	m, ok := s.fs.meta[file]
	if !ok {
		return fmt.Errorf("unknown file %q", file)
	}
	byTarget := make(map[int][]int)
	var order []int
	for i, strip := range strips {
		for _, rep := range m.Layout.Replicas(strip) {
			if rep == s.srv {
				continue
			}
			if _, seen := byTarget[rep]; !seen {
				order = append(order, rep)
			}
			byTarget[rep] = append(byTarget[rep], i)
		}
	}
	for _, target := range order {
		idxs := byTarget[target]
		fwd := writeManyReq{File: file, Strips: make([]int64, len(idxs)), Data: make([][]byte, len(idxs))}
		for j, i := range idxs {
			fwd.Strips[j], fwd.Data[j] = strips[i], data[i]
		}
		var size int64 = headerBytes
		for _, d := range fwd.Data {
			size += int64(len(d))
		}
		resp, err := s.fs.call(p, s.nodeID, target, fwd, size)
		if err != nil {
			if errors.Is(err, ErrServerDown) || errors.Is(err, ErrTimeout) {
				// Best-effort replication under faults: skip the down
				// target instead of failing the whole batch.
				s.fs.clu.Recovery.AddSkippedForward()
				continue
			}
			return err
		}
		if e, isErr := resp.(errResp); isErr {
			return fmt.Errorf("replica forward to server %d: %s", target, e.Err)
		}
	}
	return nil
}

// Drop discards a local strip copy without timing cost (a metadata-scale
// truncation). Reconfiguration uses it to retire stale placements.
func (s *Server) Drop(file string, strip int64) {
	if strips, ok := s.stripsOf(file); ok {
		delete(strips, strip)
	}
	if s.fs.invalidator != nil {
		s.fs.invalidator.InvalidateStrip(file, strip)
	}
}

// validateWrite checks a single-strip write against the file's metadata.
// Shared by the request chain and LocalWrite so both reject exactly the
// same requests with the same messages.
func (s *Server) validateWrite(file string, strip int64, data []byte) error {
	m, ok := s.fs.meta[file]
	if !ok {
		return fmt.Errorf("unknown file %q", file)
	}
	lo, hi := m.StripBounds(strip)
	if hi <= lo {
		return fmt.Errorf("strip %d outside file %q", strip, file)
	}
	if int64(len(data)) != hi-lo {
		return fmt.Errorf("strip %d of %q is %d bytes, got %d", strip, file, hi-lo, len(data))
	}
	return nil
}

// validateWriteMany checks a batched write and returns its total bytes.
func (s *Server) validateWriteMany(file string, strips []int64, data [][]byte) (int64, error) {
	m, ok := s.fs.meta[file]
	if !ok {
		return 0, fmt.Errorf("unknown file %q", file)
	}
	if len(strips) != len(data) {
		return 0, fmt.Errorf("writeMany: %d strips but %d buffers", len(strips), len(data))
	}
	var total int64
	for i, strip := range strips {
		lo, hi := m.StripBounds(strip)
		if hi <= lo {
			return 0, fmt.Errorf("strip %d outside file %q", strip, file)
		}
		if int64(len(data[i])) != hi-lo {
			return 0, fmt.Errorf("strip %d of %q is %d bytes, got %d", strip, file, hi-lo, len(data[i]))
		}
		total += hi - lo
	}
	return total, nil
}

// Preload installs a strip copy directly into the server's store, with no
// simulated disk or network cost. Benchmark bootstrap uses it to populate
// paper-scale datasets without simulating the ingest; it must not be
// called while a simulation is measuring.
func (s *Server) Preload(file string, strip int64, data []byte) {
	s.storePut(file, strip, data)
}

func (s *Server) storePut(file string, strip int64, data []byte) {
	strips, ok := s.stripsOf(file)
	if !ok {
		strips = make(map[int64][]byte)
		s.store[file] = strips
		s.lastFile, s.lastStrips = file, strips
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	strips[strip] = cp
	if s.fs.invalidator != nil {
		s.fs.invalidator.InvalidateStrip(file, strip)
	}
}

// migrate pushes the local copy of a strip to each target server. The
// pushes are migration-tagged writes: restripe copy traffic must not leak
// into the latency observer's tuning samples.
func (s *Server) migrate(p *sim.Proc, req migrateReq) error {
	data, err := s.LocalRead(p, req.File, req.Strip, 0, 0)
	if err != nil {
		return err
	}
	// The strip copy is pool-backed; writeStrip is synchronous and the
	// receiving server stores its own copy, so the buffer is dead on every
	// exit from the push loop.
	defer ReleaseBuffer(data)
	for _, target := range req.Targets {
		if target == s.srv {
			continue
		}
		if err := s.fs.writeStrip(p, s.nodeID, target, req.File, req.Strip, data, false, true); err != nil {
			return err
		}
	}
	return nil
}

// StoredBytes returns the bytes of all strips the server currently holds,
// the quantity behind the layout capacity-overhead accounting.
func (s *Server) StoredBytes() int64 {
	var total int64
	for _, strips := range s.store {
		for _, d := range strips {
			total += int64(len(d))
		}
	}
	return total
}
