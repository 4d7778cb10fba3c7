package ps

import (
	"encoding/binary"
	"errors"
	"math"

	"hetpipe/internal/tensor"
)

// Wire protocol v3: length-prefixed binary frames over a per-worker TCP
// connection. The design goals are an allocation-free steady state (pooled
// buffers on both ends, no reflection, no per-call map conversion), payloads
// that are straight memcpys of the float64 data, and one round trip per wave:
// a wave's push and its snapshot pull travel in one opWave frame. An
// exchange covers the server's whole layout — its keys, sorted — so no key
// crosses the wire: vectors travel in layout order, and a client learns the
// layout once, from opMeta. (v2 sent a keyset, interned per connection, with
// every section; v1 spent two frames per wave.)
//
// A connection opens with an 8-byte preamble from the client — magic uint32,
// version uint16, two reserved zero bytes, all little-endian — so a server
// can reject foreign peers and other versions (a v1 or v2 client included)
// with a protocol-error frame instead of a decode failure deep inside a
// request.
//
// Every frame is a uint32 little-endian payload length followed by that many
// payload bytes, capped at maxFrame. Requests start with a one-byte opcode:
//
//	opWave:     flags byte (wavePush | wavePull, at least one), then
//	            if wavePull: uvarint clock
//	            if wavePush: uvarint worker, then one vector per layout key
//	            to the end of the frame
//	opMeta:     opcode only
//
// The push section comes last so that its vectors run to the frame's end:
// the server counts them against its layout and answers a wrong count with an
// application error. A frame must end where its last field does, in either
// direction: trailing bytes in a request are a protocol error, and in a
// response they fail the client like any other response that does not
// decode.
//
// Responses start with a one-byte status (statusOK, statusAppErr,
// statusProtoErr); non-OK frames carry a length-prefixed message. OK
// payloads are op-specific:
//
//	opWave:     if wavePull: one vector per layout key;
//	            if wavePush: uvarint new worker clock — the clock trails so
//	            the server can commit, wait and encode in one pass under its
//	            lock
//	opMeta:     uvarint workers, uvarint keys, then per key in layout order:
//	            string, uvarint dim
//
// Every opWave frame is answered in one order, whatever its sections: the
// server validates all of them, commits the push, waits until the global
// clock reaches the pull's clock, and only then answers. A push call that has
// returned is therefore already in the server's clocks and snapshots, over
// TCP as in process. Commit-before-gate is what keeps D = 0 free of deadlock:
// no worker ever waits on a clock while holding back the push its peers are
// waiting for. A rejected section is an application error: nothing was
// committed and the connection stays usable. Vectors are `uvarint dim`
// followed by dim raw little-endian float64 values.
const (
	wireMagic   uint32 = 0x48505053 // "SPPH" on the wire: HetPipe Parameter Server
	wireVersion uint16 = 3
	// maxFrame caps a frame payload. A larger frame ends its connection
	// (counted malformed by a server, failing a client), and below the cap a
	// frame's buffer grows only as its bytes arrive — a length prefix from a
	// confused or hostile peer must not become a giant allocation.
	maxFrame = 64 << 20
	// preambleLen is the size of the connection-opening header.
	preambleLen = 8
)

// Request opcodes. The zero value is invalid on purpose: an all-zero frame
// decodes to "unknown op", not a silent push.
const (
	opWave byte = 1
	// 2 was opPull, the "latest weights once the clock reaches c" read. Its
	// answer depended on which pushes had arrived, which WSP conformance
	// forbids, and nothing issued it; a frame carrying it is answered like any
	// unknown op. 3 and 5 were opClock and opDistance, queries of the global
	// clock and the clock distance; a run reads both off the servers it owns,
	// so they were retired the same way. The other opcodes keep their numbers.
	opMeta byte = 4
)

// opWave section flags.
const (
	wavePush byte = 1 << iota
	wavePull
)

// Response status codes.
const (
	statusOK       byte = 0
	statusAppErr   byte = 1 // server-side application error (bad worker, wrong vector count or length, released clock, closed)
	statusProtoErr byte = 2 // the peer violated the wire protocol; the connection closes after this frame
)

// Decode-layer sentinel errors. They are deliberately allocation-free so the
// hot decode path can return them directly; the transport wraps them with
// context before a frame or caller sees them.
var (
	errTruncated = errors.New("ps: truncated frame payload")
	errWaveFlags = errors.New("ps: wave frame with no section or unknown section flags")
	errTrailing  = errors.New("ps: trailing bytes after the frame's last field")
	errOverflow  = errors.New("ps: integer field does not fit an int")
)

// encoder builds one outgoing frame in a reusable buffer. The first four
// bytes are reserved for the length prefix (begin/finish), so a finished
// frame is written with a single conn.Write — no separate header syscall.
type encoder struct {
	buf []byte
}

// begin resets the encoder and reserves the 4-byte length prefix.
func (e *encoder) begin() {
	e.buf = e.buf[:0]
	e.grow(4)
}

// finish patches the length prefix and returns the complete frame.
func (e *encoder) finish() []byte {
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	return e.buf
}

// grow extends the buffer by n bytes and returns the new region.
//
//hetlint:hotpath
func (e *encoder) grow(n int) []byte {
	need := len(e.buf) + n
	if cap(e.buf) < need {
		nb := make([]byte, len(e.buf), need+need/2+64)
		copy(nb, e.buf)
		e.buf = nb
	}
	off := len(e.buf)
	e.buf = e.buf[:need]
	return e.buf[off:need]
}

//hetlint:hotpath
func (e *encoder) u8(x byte) {
	e.buf = append(e.buf, x)
}

//hetlint:hotpath
func (e *encoder) uvarint(x uint64) {
	e.buf = binary.AppendUvarint(e.buf, x)
}

//hetlint:hotpath
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	copy(e.grow(len(s)), s)
}

// vec appends a vector: uvarint dim followed by raw little-endian float64s.
//
//hetlint:hotpath
func (e *encoder) vec(v tensor.Vector) {
	e.uvarint(uint64(len(v)))
	tensor.PutLE(e.grow(8*len(v)), v)
}

// decoder reads one frame payload in place — no copies beyond the float
// conversion into the caller's destination vectors.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) reset(buf []byte) {
	d.buf = buf
	d.off = 0
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

//hetlint:hotpath
func (d *decoder) u8() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, errTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

//hetlint:hotpath
func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return x, nil
}

// nat decodes a uvarint that must fit a non-negative int: a clock, a count,
// a dimension.
//
//hetlint:hotpath
func (d *decoder) nat() (int, error) {
	x, err := d.uvarint()
	if err == nil && x > math.MaxInt {
		err = errOverflow
	}
	return int(x), err
}

//hetlint:hotpath
func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, errTruncated
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// str decodes a length-prefixed string. It allocates, which is fine on the
// paths that use it: error messages and Meta.
func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// vecInto decodes a vector, reusing dst when its length already matches —
// the steady-state case for every pull into worker-owned buffers.
//
//hetlint:hotpath
func (d *decoder) vecInto(dst tensor.Vector) (tensor.Vector, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining())/8 {
		return nil, errTruncated
	}
	b, err := d.bytes(int(n) * 8)
	if err != nil {
		return nil, err
	}
	if uint64(len(dst)) != n {
		dst = make(tensor.Vector, n)
	}
	tensor.GetLE(dst, b)
	return dst, nil
}

// vecRaw reads a vector header and returns its element count and raw
// little-endian payload bytes without converting them, so the caller can
// decode straight into a destination of its choosing.
//
//hetlint:hotpath
func (d *decoder) vecRaw() (int, []byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(d.remaining())/8 {
		return 0, nil, errTruncated
	}
	b, err := d.bytes(int(n) * 8)
	if err != nil {
		return 0, nil, err
	}
	return int(n), b, nil
}

// appendPreamble appends the connection-opening header.
func appendPreamble(buf []byte) []byte {
	var p [preambleLen]byte
	binary.LittleEndian.PutUint32(p[0:], wireMagic)
	binary.LittleEndian.PutUint16(p[4:], wireVersion)
	return append(buf, p[:]...)
}

// checkPreamble validates a connection-opening header.
func checkPreamble(p []byte) error {
	if len(p) != preambleLen {
		return errTruncated
	}
	if got := binary.LittleEndian.Uint32(p[0:]); got != wireMagic {
		return errors.New("ps: bad protocol magic (not a hetpipe parameter-server peer)")
	}
	if got := binary.LittleEndian.Uint16(p[4:]); got != wireVersion {
		return errors.New("ps: protocol version mismatch")
	}
	return nil
}
