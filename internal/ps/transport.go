package ps

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"hetpipe/internal/tensor"
)

// The TCP transport speaks the binary wire protocol described in wire.go:
// length-prefixed frames, whole-layout exchanges with no key on the wire,
// raw little-endian float payloads through pooled buffers. Pulls may block server-side, so
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
// the current request's sections.
type serverConn struct {
	conn net.Conn
	s    *Server
	in   frameReader // incoming request frames
	dec  decoder     // reads the current request's payload
	enc  encoder     // outgoing response frame

	// The current wave request. The push's vector slice is scratch reused
	// across requests; its deltas land as consecutive layout-order segments
	// of flat (lengths in dims), which the push's Vecs view. The pull has no
	// destinations: its vectors are encoded straight into the response.
	w    wave
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
			c.protoFail(errors.New("ps: truncated connection preamble"))
		}
		return
	}
	if err := checkPreamble(pre[:]); err != nil {
		c.protoFail(err)
		return
	}
	for {
		payload, err := c.in.next()
		if err != nil {
			if err == errFrameSize {
				c.protoFail(err)
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

// decodeWave reads a wave request into c.w. The push's vectors run to the
// end of the frame; the server counts them against its layout.
//
//hetlint:hotpath
func (c *serverConn) decodeWave() error {
	flags, err := c.dec.u8()
	if err != nil {
		return err
	}
	if flags == 0 || flags&^(wavePush|wavePull) != 0 {
		return errWaveFlags
	}
	// The worker and the clock are decoded as they were encoded, int to
	// uint64 and back, so a negative one is the server's to refuse with an
	// application error, like any other out-of-range value.
	w := &c.w
	w.pushes, w.pulls = flags&wavePush != 0, flags&wavePull != 0
	if w.pulls {
		clock, err := c.dec.uvarint()
		if err != nil {
			return err
		}
		w.pull.Clock = int(clock)
	}
	if !w.pushes {
		if c.dec.remaining() != 0 {
			return errTrailing
		}
		return nil
	}
	worker, err := c.dec.uvarint()
	if err != nil {
		return err
	}
	w.push.Worker = int(worker)
	c.flat = c.flat[:0]
	c.dims = c.dims[:0]
	for c.dec.remaining() > 0 {
		n, b, err := c.dec.vecRaw()
		if err != nil {
			return err
		}
		off := len(c.flat)
		c.flat = growVec(c.flat, n)
		tensor.GetLE(c.flat[off:off+n], b)
		c.dims = append(c.dims, n)
	}
	// Views are cut only now: growVec may have moved flat mid-decode.
	w.push.Vecs = w.push.Vecs[:0]
	off := 0
	for _, n := range c.dims {
		c.w.push.Vecs = append(c.w.push.Vecs, c.flat[off:off+n])
		off += n
	}
	return nil
}

// handleWave serves one wave exchange in the order wire.go states: the
// server validates, commits, waits for the gate and encodes under its lock,
// and the answer goes out after all of that.
func (c *serverConn) handleWave() bool {
	if err := c.decodeWave(); err != nil {
		return c.protoFail(err)
	}
	c.enc.begin()
	c.enc.u8(statusOK)
	clock, err := c.s.exchange(&c.w, &c.enc)
	if err != nil {
		return c.writeAppErr(err)
	}
	if c.w.pushes {
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

func (c *serverConn) handleMeta() bool {
	m, _ := c.s.Meta() // a Server's Meta cannot fail
	keys := m.layout()
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
//
// A client checks an exchange against its server's layout before sending a
// byte, so it learns the layout from the server's Meta: the first Meta call
// records it, and an exchange made before any Meta makes one.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	err  error // the transport error that failed this client, if any

	enc encoder     // outgoing request frame
	in  frameReader // incoming response frames
	dec decoder     // reads the current response's payload

	layout []string // the server's layout, once a Meta has answered
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
	return &Client{conn: conn, in: newFrameReader(conn)}
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

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
	return appErr(msg)
}

// appErr rebuilds a server's application error from its text. The one
// sentinel a caller acts on, ErrReleased, is restored from the text's prefix,
// so errors.Is matches it over TCP as in process.
func appErr(msg string) error {
	if rest, ok := strings.CutPrefix(msg, ErrReleased.Error()); ok {
		return fmt.Errorf("%w%s", ErrReleased, rest)
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
//
//hetlint:allow surface Server.Exchange's TCP twin: Sharded reaches a client in two phases, so only this package's tests and benchmarks make the whole round trip
func (c *Client) Exchange(push *Push, pull *SnapshotPull) (int, error) {
	if push == nil && pull == nil {
		return 0, nil
	}
	w := newWave(push, pull, nil)
	if err := c.sendWave(w); err != nil {
		return 0, err
	}
	return c.receiveWave(w)
}

// layoutKeys returns the server's layout, asking the server the first time.
func (c *Client) layoutKeys() ([]string, error) {
	c.mu.Lock()
	keys := c.layout
	c.mu.Unlock()
	if keys != nil {
		return keys, nil
	}
	m, err := c.Meta()
	if err != nil {
		return nil, err
	}
	return m.layout(), nil
}

// sendWave is Exchange's first half: on success the request is on the wire
// and the client stays locked until receiveWave is called with the same
// wave. With sel nil the sections are checked against the server's layout
// first; Sharded, which passes sel, has checked them against its own.
func (c *Client) sendWave(w wave) error {
	if w.sel == nil {
		keys, err := c.layoutKeys()
		if err != nil {
			return err
		}
		if w.pushes && len(w.push.Vecs) != len(keys) {
			return fmt.Errorf("ps: push of %d vectors to a layout of %d shards", len(w.push.Vecs), len(keys))
		}
		if w.pulls && len(w.pull.Dst) != len(keys) {
			return fmt.Errorf("ps: pull into %d destinations from a layout of %d shards", len(w.pull.Dst), len(keys))
		}
	}
	if err := c.begin(opWave); err != nil {
		return err
	}
	c.encodeWave(&w)
	return c.send()
}

//hetlint:hotpath
func (c *Client) encodeWave(w *wave) {
	var flags byte
	if w.pushes {
		flags |= wavePush
	}
	if w.pulls {
		flags |= wavePull
	}
	c.enc.u8(flags)
	if w.pulls {
		c.enc.uvarint(uint64(w.pull.Clock))
	}
	if w.pushes {
		c.enc.uvarint(uint64(w.push.Worker))
		for j := range w.count(w.push.Vecs) {
			c.enc.vec(w.push.Vecs[w.at(j)])
		}
	}
}

// receiveWave is Exchange's second half: it fills the pull's Dst and returns
// the worker's new clock when the exchange pushed.
func (c *Client) receiveWave(w wave) (int, error) {
	if err := c.receive(); err != nil {
		return 0, err
	}
	clock, err := c.decodeWave(&w)
	return clock, c.done(err)
}

// decodeWave reads a wave response: one vector per layout key into the
// pull's Dst (through sel) when the exchange pulled, then the trailing clock
// when it pushed.
//
//hetlint:hotpath
func (c *Client) decodeWave(w *wave) (int, error) {
	if dst := w.pull.Dst; w.pulls {
		for j := range w.count(dst) {
			i := w.at(j)
			v, err := c.dec.vecInto(dst[i])
			if err != nil {
				return 0, err
			}
			dst[i] = v
		}
	}
	if !w.pushes {
		return 0, nil
	}
	return c.dec.nat()
}

// PushOrdered sends worker w's aggregated wave update and returns the
// worker's new clock: Exchange with no pull section. keys must be the
// server's whole layout in order, vecs[i] keys[i]'s delta.
func (c *Client) PushOrdered(w int, keys []string, vecs []tensor.Vector) (int, error) {
	if err := c.checkKeys(keys); err != nil {
		return 0, err
	}
	return c.Exchange(&Push{Worker: w, Vecs: vecs}, nil)
}

// PullAtInto fetches the clock-versioned snapshot, blocking server-side until
// the global clock reaches `clock`, filling dst[i] with keys[i]'s weights
// (reusing dst[i]'s storage when its length already matches): Exchange with
// no push section. keys must be the server's whole layout in order.
func (c *Client) PullAtInto(dst []tensor.Vector, keys []string, clock int) error {
	if err := c.checkKeys(keys); err != nil {
		return err
	}
	_, err := c.Exchange(nil, &SnapshotPull{Clock: clock, Dst: dst})
	return err
}

// checkKeys holds a keyed call to the server's whole layout.
func (c *Client) checkKeys(keys []string) error {
	layout, err := c.layoutKeys()
	if err != nil {
		return err
	}
	return checkLayout(keys, layout)
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
	if err == nil {
		c.layout = m.layout()
	}
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
	// Each key takes at least two payload bytes, so a count beyond the
	// remaining frame is a lie, not a big layout.
	if n > uint64(c.dec.remaining()) {
		return Meta{}, errTruncated
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
