package ps

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"hetpipe/internal/tensor"
)

// The TCP transport speaks the binary wire protocol described in wire.go:
// length-prefixed frames, per-connection key interning, raw little-endian
// float payloads through pooled buffers. Pulls may block server-side, so
// each connection is served by its own goroutine; a Client serializes
// concurrent callers with a mutex, but one connection per worker thread
// (as internal/cluster deploys them) remains the fast configuration.

// connReadBuf sizes each side's buffered reader. Deliberately small: the
// buffer only needs to amortize the tiny reads (frame headers, preambles,
// push acks). Bulk payloads are read with io.ReadFull into the frame
// buffer, and bufio passes reads larger than its buffer straight to the
// socket — so a small buffer means weight payloads land in the frame
// buffer in one kernel copy instead of bouncing through bufio's.
const connReadBuf = 4 << 10

// Serve accepts connections on l and dispatches requests to s until the
// listener closes. Each connection gets a dedicated goroutine so blocking
// pulls do not stall other clients.
func Serve(l net.Listener, s *Server) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			sc := &serverConn{conn: conn, s: s, in: newFrameReader(conn)}
			sc.serve()
		}()
	}
}

// serverConn is one connection's server-side state: pooled frame buffers and
// the interned key table mirroring the client's.
type serverConn struct {
	conn net.Conn
	s    *Server
	in   frameReader // incoming request frames
	dec  decoder     // reads the current request's payload
	enc  encoder     // outgoing response frame

	names []string // interned key table: id -> key
	keys  []string // the key set being decoded (scratch)
	// The current wave request's sections. Their key and vector slices are
	// scratch reused across requests; a decoded push's deltas land as
	// consecutive key-order segments of flat (lengths in dims), which
	// push.Vecs views.
	push Push
	pull SnapshotPull
	flat tensor.Vector
	dims []int
}

// serve runs the connection's request loop. A clean shutdown is the client
// closing the connection between frames (bare io.EOF); anything else — a bad
// preamble, a truncated or oversized frame, an undecodable request — counts
// as a malformed request in the server's stats and, where the connection is
// still writable, draws a protocol-error frame before the connection closes.
func (c *serverConn) serve() {
	var pre [preambleLen]byte
	if _, err := io.ReadFull(c.in.br, pre[:]); err != nil {
		if err != io.EOF { // connected and vanished: clean enough
			c.s.noteMalformed()
			c.writeProtoErr("ps: truncated connection preamble")
		}
		return
	}
	if err := checkPreamble(pre[:]); err != nil {
		c.s.noteMalformed()
		c.writeProtoErr(err.Error())
		return
	}
	for {
		payload, err := c.in.next()
		if err != nil {
			if err == errFrameSize {
				c.s.noteMalformed()
				c.writeProtoErr(err.Error())
			} else if err != io.EOF { // a frame cut short, or an unreadable socket
				c.s.noteMalformed()
			}
			return
		}
		c.dec.reset(payload)
		c.s.frames.Add(1)
		if !c.handle() {
			return
		}
	}
}

// frameReader reads one end's incoming frames: a 4-byte little-endian length
// prefix, then that many payload bytes. Server and client both read through
// one, so both hold the same line against the peer's announcements.
type frameReader struct {
	br  *bufio.Reader
	hdr [4]byte // length prefix (a local would escape through io.Reader)
	buf []byte  // the last frame's payload
}

func newFrameReader(conn net.Conn) frameReader {
	return frameReader{br: bufio.NewReaderSize(conn, connReadBuf)}
}

// errFrameSize is a length prefix announcing more than maxFrame.
var errFrameSize = errors.New("ps: frame exceeds size limit")

// next reads one frame and returns its payload, valid until the next call.
// io.EOF before the first header byte is a clean end of stream; a frame cut
// anywhere after it is io.ErrUnexpectedEOF, and one announcing more than
// maxFrame is errFrameSize. A payload the buffer already fits (every
// steady-state frame) is read in place; a larger one grows the buffer as its
// bytes arrive, doubling, so the memory a peer can make this end allocate is
// bounded by what it actually sends, not by what its length prefix announces.
//
//hetlint:hotpath
func (r *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(r.hdr[:]))
	if n > maxFrame {
		return nil, errFrameSize
	}
	for have := 0; have < n; {
		upto := n
		if n > cap(r.buf) {
			upto = min(n, max(2*have, cap(r.buf), connReadBuf))
			r.buf = append(r.buf[:have], make([]byte, upto-have)...)
		}
		if _, err := io.ReadFull(r.br, r.buf[have:upto]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, err
		}
		have = upto
	}
	r.buf = r.buf[:n]
	return r.buf, nil
}

// handle decodes and executes one request, writing one response frame.
// It returns false when the connection must close (protocol violation or an
// unwritable socket).
func (c *serverConn) handle() bool {
	op, err := c.dec.u8()
	if err != nil {
		return c.protoFail(err)
	}
	switch op {
	case opWave:
		return c.handleWave()
	case opMeta:
		return c.handleMeta()
	default:
		c.s.noteMalformed()
		c.writeProtoErr(fmt.Sprintf("ps: unknown op %d", op))
		return true // framing is intact; the peer may recover
	}
}

// protoFail counts a malformed request, reports it to the peer, and closes.
func (c *serverConn) protoFail(err error) bool {
	c.s.noteMalformed()
	c.writeProtoErr(err.Error())
	return false
}

// decodeKeys reads a keyset into c.keys, interning new definitions.
//
//hetlint:hotpath
func (c *serverConn) decodeKeys() error {
	n, err := c.dec.uvarint()
	if err != nil {
		return err
	}
	// Each referenced key needs at least one payload byte, so a count beyond
	// the remaining frame is a lie, not a big request.
	if n > uint64(c.dec.remaining()) {
		return errKeyCount
	}
	c.keys = c.keys[:0]
	for i := uint64(0); i < n; i++ {
		tok, err := c.dec.uvarint()
		if err != nil {
			return err
		}
		if tok == 0 {
			name, err := c.dec.str()
			if err != nil {
				return err
			}
			c.names = append(c.names, name)
			c.keys = append(c.keys, name)
			continue
		}
		id := tok - 1
		if id >= uint64(len(c.names)) {
			return errBadKeyRef
		}
		c.keys = append(c.keys, c.names[id])
	}
	return nil
}

// decodeWave reads a wave request's sections into c.push and c.pull and
// returns which are present (nil for an absent one).
//
//hetlint:hotpath
func (c *serverConn) decodeWave() (*Push, *SnapshotPull, error) {
	flags, err := c.dec.u8()
	if err != nil {
		return nil, nil, err
	}
	if flags == 0 || flags&^(wavePush|wavePull) != 0 {
		return nil, nil, errWaveFlags
	}
	var push *Push
	var pull *SnapshotPull
	if flags&wavePush != 0 {
		worker, err := c.dec.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if err := c.decodeKeys(); err != nil {
			return nil, nil, err
		}
		// The section keeps the decoded keys; its old slice becomes the next
		// decode's scratch.
		c.push.Keys, c.keys = c.keys, c.push.Keys
		c.push.Worker = int(worker)
		c.flat = c.flat[:0]
		c.dims = c.dims[:0]
		for range c.push.Keys {
			n, b, err := c.dec.vecRaw()
			if err != nil {
				return nil, nil, err
			}
			off := len(c.flat)
			c.flat = growVec(c.flat, n)
			tensor.GetLE(c.flat[off:off+n], b)
			c.dims = append(c.dims, n)
		}
		// Views are cut only now: growVec may have moved flat mid-decode.
		c.push.Vecs = c.push.Vecs[:0]
		off := 0
		for _, n := range c.dims {
			c.push.Vecs = append(c.push.Vecs, c.flat[off:off+n])
			off += n
		}
		push = &c.push
	}
	if flags&wavePull != 0 {
		clock, err := c.dec.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if err := c.decodeKeys(); err != nil {
			return nil, nil, err
		}
		c.pull.Keys, c.keys = c.keys, c.pull.Keys
		c.pull.Clock = int(clock)
		pull = &c.pull
	}
	if c.dec.remaining() != 0 {
		return nil, nil, errTrailing
	}
	return push, pull, nil
}

// handleWave serves one wave exchange in the order wire.go states: the
// server validates, commits, waits for the gate and encodes under its lock,
// and the answer goes out after all of that.
func (c *serverConn) handleWave() bool {
	push, pull, err := c.decodeWave()
	if err != nil {
		return c.protoFail(err)
	}
	c.enc.begin()
	c.enc.u8(statusOK)
	clock, err := c.s.exchange(push, pull, c)
	if err != nil {
		return c.writeAppErr(err)
	}
	if push != nil {
		c.enc.uvarint(uint64(clock)) // clock trails the vectors; see wire.go
	}
	return c.writeFrame()
}

// growVec extends v by n elements, reallocating with headroom when the
// capacity runs out (cold: the scratch stabilizes after the first push).
//
//hetlint:hotpath
func growVec(v tensor.Vector, n int) tensor.Vector {
	need := len(v) + n
	if cap(v) >= need {
		return v[:need]
	}
	nv := make(tensor.Vector, need, 2*need)
	copy(nv, v)
	return nv
}

// visit implements vecSink: the server calls it once per requested key,
// under its lock, and the vector is encoded straight into the response
// frame — no intermediate copy, no map.
//
//hetlint:hotpath
func (c *serverConn) visit(_ int, v tensor.Vector) {
	c.enc.vec(v)
}

func (c *serverConn) handleMeta() bool {
	m, err := c.s.Meta()
	if err != nil {
		return c.writeAppErr(err)
	}
	keys := make([]string, 0, len(m.Dims))
	for k := range m.Dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.enc.begin()
	c.enc.u8(statusOK)
	c.enc.uvarint(uint64(m.Workers))
	c.enc.uvarint(uint64(len(keys)))
	for _, k := range keys {
		c.enc.str(k)
		c.enc.uvarint(uint64(m.Dims[k]))
	}
	return c.writeFrame()
}

// writeFrame finishes the pending response and writes it in one syscall.
//
//hetlint:hotpath
func (c *serverConn) writeFrame() bool {
	_, err := c.conn.Write(c.enc.finish())
	return err == nil
}

// writeAppErr discards any partially encoded response and reports an
// application-level error; the connection stays usable.
func (c *serverConn) writeAppErr(err error) bool {
	c.enc.begin()
	c.enc.u8(statusAppErr)
	c.enc.str(err.Error())
	return c.writeFrame()
}

// writeProtoErr reports a protocol violation. Best-effort: the peer may
// already be gone, and the connection closes either way.
func (c *serverConn) writeProtoErr(msg string) {
	c.enc.begin()
	c.enc.u8(statusProtoErr)
	c.enc.str(msg)
	c.conn.Write(c.enc.finish())
}

// Client is a TCP client for one parameter-server connection. All methods
// are safe for concurrent use: a mutex held from the moment a request is
// encoded until its response is decoded serializes request/response pairs on
// the wire (interleaved frames would corrupt the stream). For parallelism,
// open one client per concurrent caller, as internal/cluster does per worker.
//
// A round trip is two halves — send (lock, encode, one Write) and receive
// (read, decode, unlock) — so Sharded can write every shard's request before
// it reads the first response. The price of the split is that a transport
// error can strand a response in flight, which the next call would read as
// its own; so a client that has seen one stays failed: it closes its
// connection, keeps the error, and returns it from every later call without
// touching the socket.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	err  error // the transport error that failed this client, if any

	enc encoder     // outgoing request frame
	in  frameReader // incoming response frames
	dec decoder     // reads the current response's payload

	ids map[string]uint32 // interned key table: key -> id
}

// Dial connects to a parameter server at addr and sends the protocol
// preamble.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ps: dial %s: %w", addr, err)
	}
	if _, err := conn.Write(appendPreamble(nil)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ps: send preamble to %s: %w", addr, err)
	}
	return newClient(conn), nil
}

// newClient wraps a connection whose preamble has been sent.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, in: newFrameReader(conn), ids: make(map[string]uint32)}
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// encodeKeys appends the keyset section, interning keys new to this
// connection. Steady state writes two or three bytes per key.
//
//hetlint:hotpath
func (c *Client) encodeKeys(keys []string) {
	c.enc.uvarint(uint64(len(keys)))
	for _, k := range keys {
		if id, ok := c.ids[k]; ok {
			c.enc.uvarint(uint64(id) + 1)
			continue
		}
		c.ids[k] = uint32(len(c.ids))
		c.enc.u8(0)
		c.enc.str(k)
	}
}

// begin locks the client for one request/response pair and starts the
// request frame. A failed client returns its error, unlocked.
//
//hetlint:hotpath
func (c *Client) begin(op byte) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return c.err
	}
	c.enc.begin()
	c.enc.u8(op)
	return nil
}

// fail marks the client failed with a transport error, closes the
// connection (which also frees the server's side of it), and unlocks.
func (c *Client) fail(err error) error {
	c.err = err
	c.conn.Close()
	c.mu.Unlock()
	return err
}

// abandon fails a client whose request went out but whose response will not
// be read — the one case where the caller, not the socket, decides the
// connection is dead.
func (c *Client) abandon() {
	c.fail(errors.New("ps: connection abandoned with a response in flight"))
}

// send writes the request frame begin started. On error the client has
// failed and is unlocked; otherwise it stays locked for receive.
//
//hetlint:hotpath
func (c *Client) send() error {
	if _, err := c.conn.Write(c.enc.finish()); err != nil {
		return c.fail(wrapErr("ps: send", err))
	}
	return nil
}

// receive reads the response payload into c.dec and consumes its status
// byte. On success the client stays locked while the caller decodes the
// payload (and then calls done); on any error it is unlocked — failed for a
// transport error, still usable for an application error the server
// reported.
func (c *Client) receive() error {
	payload, err := c.in.next()
	if err != nil {
		if err == io.EOF {
			return c.fail(errors.New("ps: server closed connection"))
		}
		return c.fail(wrapErr("ps: receive", err))
	}
	c.dec.reset(payload)
	status, err := c.dec.u8()
	if err != nil {
		return c.fail(wrapErr("ps: receive", err))
	}
	if status == statusOK {
		return nil
	}
	if status != statusAppErr && status != statusProtoErr {
		return c.fail(fmt.Errorf("ps: unknown response status %d", status))
	}
	msg, err := c.dec.str()
	if err != nil {
		return c.fail(wrapErr("ps: receive", err))
	}
	c.mu.Unlock()
	if status == statusProtoErr {
		return fmt.Errorf("ps: protocol error: %s", msg)
	}
	return errors.New(msg)
}

// done ends a request/response pair after the payload is decoded. A payload
// that did not decode, or did not end where its last field did, means the
// stream can no longer be trusted.
//
//hetlint:hotpath
func (c *Client) done(decodeErr error) error {
	if decodeErr == nil && c.dec.remaining() != 0 {
		decodeErr = errTrailing
	}
	if decodeErr != nil {
		return c.fail(wrapErr("ps: receive", decodeErr))
	}
	c.mu.Unlock()
	return nil
}

func wrapErr(what string, err error) error { return fmt.Errorf("%s: %w", what, err) }

// Exchange performs one wave exchange with the server in one round trip; see
// Server.Exchange for the semantics and wire.go for the frame. With neither
// section there is nothing to say and nothing is sent.
func (c *Client) Exchange(push *Push, pull *SnapshotPull) (int, error) {
	if push == nil && pull == nil {
		return 0, nil
	}
	if err := c.sendWave(push, pull); err != nil {
		return 0, err
	}
	return c.receiveWave(push, pull)
}

// sendWave is Exchange's first half: on success the request is on the wire
// and the client stays locked until receiveWave is called with the same
// sections.
func (c *Client) sendWave(push *Push, pull *SnapshotPull) error {
	if push != nil && len(push.Keys) != len(push.Vecs) {
		return fmt.Errorf("ps: %d keys for %d vectors", len(push.Keys), len(push.Vecs))
	}
	if pull != nil && len(pull.Dst) != len(pull.Keys) {
		return fmt.Errorf("ps: %d destinations for %d keys", len(pull.Dst), len(pull.Keys))
	}
	if err := c.begin(opWave); err != nil {
		return err
	}
	c.encodeWave(push, pull)
	return c.send()
}

//hetlint:hotpath
func (c *Client) encodeWave(push *Push, pull *SnapshotPull) {
	var flags byte
	if push != nil {
		flags |= wavePush
	}
	if pull != nil {
		flags |= wavePull
	}
	c.enc.u8(flags)
	if push != nil {
		c.enc.uvarint(uint64(push.Worker))
		c.encodeKeys(push.Keys)
		for _, v := range push.Vecs {
			c.enc.vec(v)
		}
	}
	if pull != nil {
		c.enc.uvarint(uint64(pull.Clock))
		c.encodeKeys(pull.Keys)
	}
}

// receiveWave is Exchange's second half: it fills pull.Dst and returns the
// worker's new clock when the exchange pushed.
func (c *Client) receiveWave(push *Push, pull *SnapshotPull) (int, error) {
	if err := c.receive(); err != nil {
		return 0, err
	}
	var dst []tensor.Vector
	if pull != nil {
		dst = pull.Dst
	}
	clock, err := c.decodeVectors(dst, push != nil)
	return clock, c.done(err)
}

// decodeVectors reads one vector per destination and then, if the response
// carries one, the trailing clock — the shape of every response that
// returns weights.
//
//hetlint:hotpath
func (c *Client) decodeVectors(dst []tensor.Vector, clocked bool) (int, error) {
	for i := range dst {
		v, err := c.dec.vecInto(dst[i])
		if err != nil {
			return 0, err
		}
		dst[i] = v
	}
	if !clocked {
		return 0, nil
	}
	return c.dec.nat()
}

// PushOrdered sends worker w's aggregated wave update as parallel key and
// vector slices and returns the worker's new clock: Exchange with no pull
// section.
func (c *Client) PushOrdered(w int, keys []string, vecs []tensor.Vector) (int, error) {
	return c.Exchange(&Push{Worker: w, Keys: keys, Vecs: vecs}, nil)
}

// PullAtInto fetches the clock-versioned snapshot of the requested keys,
// blocking server-side until the global clock reaches `clock`, filling dst[i]
// with keys[i]'s weights (reusing dst[i]'s storage when its length already
// matches): Exchange with no push section.
func (c *Client) PullAtInto(dst []tensor.Vector, keys []string, clock int) error {
	_, err := c.Exchange(nil, &SnapshotPull{Clock: clock, Keys: keys, Dst: dst})
	return err
}

// Meta queries the server's shard layout and worker count.
func (c *Client) Meta() (Meta, error) {
	if err := c.begin(opMeta); err != nil {
		return Meta{}, err
	}
	if err := c.send(); err != nil {
		return Meta{}, err
	}
	if err := c.receive(); err != nil {
		return Meta{}, err
	}
	m, err := c.decodeMeta()
	return m, c.done(err)
}

func (c *Client) decodeMeta() (Meta, error) {
	workers, err := c.dec.nat()
	if err != nil {
		return Meta{}, err
	}
	n, err := c.dec.uvarint()
	if err != nil {
		return Meta{}, err
	}
	if n > uint64(c.dec.remaining()) {
		return Meta{}, errKeyCount
	}
	m := Meta{Workers: workers, Dims: make(map[string]int, n)}
	for i := uint64(0); i < n; i++ {
		key, err := c.dec.str()
		if err != nil {
			return Meta{}, err
		}
		dim, err := c.dec.nat()
		if err != nil {
			return Meta{}, err
		}
		m.Dims[key] = dim
	}
	return m, nil
}
