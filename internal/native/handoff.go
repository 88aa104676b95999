// The hand-off channel: a node that must forward a request sends it to the
// service node over a pooled, persistent connection and relays the reply —
// the user-level stand-in for the paper's TCP hand-off over M-VIA.
//
// A channel starts life as an ordinary HTTP request to the peer's existing
// address, GET /control/handoff with Upgrade: l2s-handoff; the peer answers
// 101 and hijacks the connection, so a cluster needs no second port per
// node. From then on the connection carries frames, one exchange at a time:
//
//	request:  uint32 FileID
//	reply:    uint64 body length | body
//
// both big endian. Every node serves the same catalogue, and the entry node
// resolved the path to its FileID before deciding, so a peer never lacks a
// file and the reply needs no status. The peer serves each frame from
// Node.lookup, the same data path /files and /local/ use, and writes the
// reply header and the body in one vectored write.
package native

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
)

const (
	handoffPath  = "/control/handoff"
	handoffProto = "l2s-handoff"

	// handoffTimeout covers one exchange, dial and upgrade included.
	handoffTimeout = 10 * time.Second

	// peerBufSize is the entry node's read buffer per exchange: large
	// enough that a typical reply arrives in one read and is relayed from
	// the buffer without a copy.
	peerBufSize = 32 << 10

	frameLen       = 4
	replyHeaderLen = 8
)

var errNodeStopped = errors.New("native: node stopped")

// connSet tracks a node's open hand-off connections in one direction, so
// that a crash or a shutdown can close them: once hijacked (or dialled
// outside an http.Transport) no http.Server or Transport does.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	held   sync.WaitGroup // one count per add not yet dropped
}

// add registers c; it reports false, leaving c to the caller, once the set
// has been closed.
func (s *connSet) add(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.held.Add(1) // under mu, so never concurrent with the Wait after closeAll
	return true
}

// drop closes c and forgets it; every successful add is paired with one.
func (s *connSet) drop(c net.Conn) {
	_ = c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.held.Done()
}

func (s *connSet) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// closeAll closes every tracked connection, in use or not, and refuses new
// ones from then on.
func (s *connSet) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.conns = nil
}

// peerConn is the entry node's end of one hand-off channel. It holds no
// read buffer: an exchange borrows one (readerPool), so an idle channel
// costs its connection and nothing more.
type peerConn struct {
	c     net.Conn
	frame [frameLen]byte // request scratch
}

// readerPool is a node's free list of hand-off read buffers, shared by all
// its outbound channels: it grows to the peak number of concurrent
// exchanges, not to the number of channels.
type readerPool struct {
	mu   sync.Mutex
	free []*bufio.Reader
}

// get returns a buffer reading from c.
func (p *readerPool) get(c net.Conn) *bufio.Reader {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return bufio.NewReaderSize(c, peerBufSize)
	}
	br := p.free[n-1]
	p.free = p.free[:n-1]
	br.Reset(c)
	return br
}

// put returns br, dropping whatever it still holds and its connection.
func (p *readerPool) put(br *bufio.Reader) {
	br.Reset(nil)
	p.mu.Lock()
	p.free = append(p.free, br)
	p.mu.Unlock()
}

// inStep reports an error when br holds bytes past a complete reply: the
// peer sent what no frame asked for, and the channel is out of step.
func inStep(br *bufio.Reader, svc int) error {
	if n := br.Buffered(); n > 0 {
		return fmt.Errorf("native: %d stray bytes on the hand-off channel from node %d", n, svc)
	}
	return nil
}

// peerPool holds the idle channels to one peer, most recently used last.
// It has no cap: a channel is only ever dialled when every pooled one is in
// use, so the pool grows to the peak number of concurrent hand-offs and
// stops.
type peerPool struct {
	mu   sync.Mutex
	idle []*peerConn
}

func (p *peerPool) get() *peerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) == 0 {
		return nil
	}
	pc := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return pc
}

func (p *peerPool) put(pc *peerConn) {
	p.mu.Lock()
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

// handoffs is one node's hand-off state, both directions.
type handoffs struct {
	pools    []peerPool // outbound idle channels, by peer id
	readers  readerPool // read buffers of the outbound exchanges in progress
	outbound connSet    // every outbound channel, idle or in use
	inbound  connSet    // hijacked channels this node serves
}

// close closes every channel in both directions and waits for the serving
// loops to return. (Outbound channels in use belong to request handlers,
// which the HTTP server has drained or, in a crash, abandoned.)
func (h *handoffs) close() {
	h.outbound.closeAll()
	h.inbound.closeAll()
	h.inbound.held.Wait()
}

// dialPeer opens a channel to node svc: TCP connect to the peer's HTTP
// address, then the one-time upgrade.
func (n *Node) dialPeer(svc int) (*peerConn, error) {
	addr := strings.TrimPrefix(n.peers[svc], "http://")
	c, err := net.DialTimeout("tcp", addr, handoffTimeout)
	if err != nil {
		return nil, err
	}
	if !n.handoffs.outbound.add(c) {
		_ = c.Close()
		return nil, errNodeStopped
	}
	pc := &peerConn{c: c}
	if err := n.upgrade(pc, svc, addr); err != nil {
		n.handoffs.outbound.drop(c)
		return nil, fmt.Errorf("native: opening hand-off channel to node %d: %w", svc, err)
	}
	n.metrics.handoffDials.Inc()
	return pc, nil
}

// upgrade turns the fresh connection pc into a hand-off channel to node
// svc at host.
func (n *Node) upgrade(pc *peerConn, svc int, host string) error {
	if err := pc.c.SetDeadline(time.Now().Add(handoffTimeout)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(pc.c, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		handoffPath, host, handoffProto); err != nil {
		return err
	}
	br := n.handoffs.readers.get(pc.c)
	defer n.handoffs.readers.put(br)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return fmt.Errorf("peer answered %s", resp.Status)
	}
	return inStep(br, svc)
}

// handoffOnce relays the request to node svc over a pooled channel.
// started reports whether any part of the reply reached the client (after
// which a retry or fallback would corrupt it).
func (n *Node) handoffOnce(svc int, f cache.FileID, w http.ResponseWriter) (started bool, err error) {
	if fi := n.cfg.faults; fi != nil && fi.refuses(svc) {
		return false, errFaultKilled
	}
	pool := &n.handoffs.pools[svc]
	for {
		pc := pool.get()
		reused := pc != nil
		if !reused {
			if pc, err = n.dialPeer(svc); err != nil {
				return false, err
			}
		}
		if started, err = n.exchange(pc, svc, f, w); err == nil {
			pool.put(pc)
			return started, nil
		}
		n.handoffs.outbound.drop(pc.c)
		if !reused || started {
			return started, err
		}
		// A pooled channel that fails before any reply byte is stale: the
		// peer closed it while it sat in the pool (it restarted since).
		// Nothing reached the client, so go round again; the pool only
		// shrinks, and whether the peer is up is the fresh dial's verdict.
	}
}

// exchange sends one frame and relays the reply to the client through a
// read buffer it borrows for the exchange. A nil error means the channel is
// in step and reusable.
func (n *Node) exchange(pc *peerConn, svc int, f cache.FileID, w http.ResponseWriter) (started bool, err error) {
	if err := pc.c.SetDeadline(time.Now().Add(handoffTimeout)); err != nil {
		return false, err
	}
	binary.BigEndian.PutUint32(pc.frame[:], uint32(f))
	if _, err := pc.c.Write(pc.frame[:]); err != nil {
		return false, err
	}
	br := n.handoffs.readers.get(pc.c)
	defer n.handoffs.readers.put(br)
	hdr, err := br.Peek(replyHeaderLen)
	if err != nil {
		return false, err
	}
	length := int64(binary.BigEndian.Uint64(hdr))
	_, _ = br.Discard(replyHeaderLen) // just peeked
	if length < 0 {
		return false, fmt.Errorf("native: bad hand-off reply from node %d (length %d)", svc, length)
	}
	h := w.Header()
	h["X-Forwarded-By"] = n.idHeader[n.id]
	n.fileHeaders(h, svc, length)
	w.WriteHeader(http.StatusOK)
	for length > 0 {
		b, err := br.Peek(int(min(length, peerBufSize)))
		if err != nil {
			return true, err
		}
		if _, err := w.Write(b); err != nil {
			// The client went away, the peer did nothing wrong: drain
			// its reply so the channel stays in step.
			if _, err = io.CopyN(io.Discard, br, length); err != nil {
				return true, err
			}
			return true, inStep(br, svc)
		}
		_, _ = br.Discard(len(b))
		length -= int64(len(b))
	}
	return true, inStep(br, svc)
}

// handleHandoff is the peer's side of the upgrade: it takes the connection
// over from the HTTP server and serves frames on it, on a goroutine of its
// own, until it fails or a crash or shutdown closes it. An idle channel
// then holds the connection and a frame-sized reader: the handler returns,
// and unless bytes past the upgrade are already buffered the loop does not
// read through the server's reader, which would keep the server's whole
// per-connection state (its 4 KB read and write buffers) alive.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok || r.Header.Get("Upgrade") != handoffProto {
		w.Header().Set("Upgrade", handoffProto)
		http.Error(w, "this endpoint only upgrades to "+handoffProto, http.StatusUpgradeRequired)
		return
	}
	c, rw, err := hj.Hijack()
	if err != nil {
		return // the server has already failed the connection
	}
	if !n.handoffs.inbound.add(c) {
		_ = c.Close()
		return
	}
	_, _ = rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + handoffProto + "\r\n\r\n")
	if rw.Flush() != nil {
		n.handoffs.inbound.drop(c)
		return
	}
	br := rw.Reader
	if br.Buffered() == 0 {
		br = bufio.NewReaderSize(c, frameLen)
	}
	go func() {
		defer n.handoffs.inbound.drop(c)
		n.serveHandoffs(c, br)
	}()
}

// readFrame reads one request frame and returns its FileID. Any error, an ID
// at or past files (the catalogue's size) included, ends the channel: a peer
// that sends one is not in step with this node.
func readFrame(br *bufio.Reader, files int) (cache.FileID, error) {
	b, err := br.Peek(frameLen)
	if err != nil {
		return 0, err
	}
	id := binary.BigEndian.Uint32(b)
	_, _ = br.Discard(frameLen) // just peeked
	if id >= uint32(files) {
		return 0, fmt.Errorf("native: hand-off frame for file %d of %d", id, files)
	}
	return cache.FileID(id), nil
}

// serveHandoffs answers frames from c until reading or writing fails.
func (n *Node) serveHandoffs(c net.Conn, br *bufio.Reader) {
	var (
		hdr   [replyHeaderLen]byte
		parts [2][]byte
		bufs  net.Buffers
	)
	for {
		f, err := readFrame(br, n.cfg.store.Len())
		if err != nil {
			return
		}
		n.metrics.received.Inc()
		content := n.lookup(f)
		binary.BigEndian.PutUint64(hdr[:], uint64(len(content)))
		parts[0], parts[1] = hdr[:], content
		bufs = parts[:] // WriteTo consumes bufs and parts; both are rebuilt per frame
		if _, err := bufs.WriteTo(c); err != nil {
			return
		}
	}
}
