package ps

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

// refEncodeVec is an independent reference encoding of the wire vector
// layout: uvarint dim, then each float64's IEEE-754 bits little-endian. The
// fuzz test holds encoder.vec to it byte for byte.
func refEncodeVec(v tensor.Vector) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(v)))]...)
	for _, f := range v {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		buf = append(buf, b[:]...)
	}
	return buf
}

// refEncodeStr is the reference string encoding: uvarint length + raw bytes.
func refEncodeStr(s string) []byte {
	var tmp [binary.MaxVarintLen64]byte
	buf := append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))]...)
	return append(buf, s...)
}

func FuzzWireCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, "w", uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, "chunk0007", uint64(42))
	f.Add(bytes.Repeat([]byte{0xff}, 64), "", uint64(1<<63))
	f.Fuzz(func(t *testing.T, raw []byte, s string, x uint64) {
		// Interpret the raw bytes as float64s (NaNs and infinities included:
		// the codec must be bit-transparent, not value-transparent).
		v := make(tensor.Vector, len(raw)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}

		var e encoder
		e.begin()
		e.uvarint(x)
		e.str(s)
		e.vec(v)
		frame := e.finish()

		// The payload must match the reference encoding exactly.
		var want []byte
		var tmp [binary.MaxVarintLen64]byte
		want = append(want, tmp[:binary.PutUvarint(tmp[:], x)]...)
		want = append(want, refEncodeStr(s)...)
		want = append(want, refEncodeVec(v)...)
		if got := frame[4:]; !bytes.Equal(got, want) {
			t.Fatalf("encoded payload differs from reference:\n got %x\nwant %x", got, want)
		}
		if got := binary.LittleEndian.Uint32(frame[:4]); int(got) != len(want) {
			t.Fatalf("length prefix = %d, want %d", got, len(want))
		}

		// And decode back bit-identically, both into a fresh buffer and into
		// a reused right-sized one.
		var d decoder
		d.reset(frame[4:])
		gx, err := d.uvarint()
		if err != nil || gx != x {
			t.Fatalf("uvarint round trip = %d, %v, want %d", gx, err, x)
		}
		gs, err := d.str()
		if err != nil || gs != s {
			t.Fatalf("str round trip = %q, %v, want %q", gs, err, s)
		}
		reuse := make(tensor.Vector, len(v))
		gv, err := d.vecInto(reuse)
		if err != nil {
			t.Fatalf("vecInto: %v", err)
		}
		if len(v) > 0 && &gv[0] != &reuse[0] {
			t.Fatal("vecInto did not reuse the right-sized destination")
		}
		if len(gv) != len(v) {
			t.Fatalf("vec round trip length = %d, want %d", len(gv), len(v))
		}
		for i := range v {
			if math.Float64bits(gv[i]) != math.Float64bits(v[i]) {
				t.Fatalf("vec[%d] = %x, want %x", i, math.Float64bits(gv[i]), math.Float64bits(v[i]))
			}
		}
		if d.remaining() != 0 {
			t.Fatalf("decoder has %d bytes left over", d.remaining())
		}

		// The wave frame, both ways: a push of a two-key layout (v, then
		// the empty vector) by worker x>>1 and a pull at clock x>>1, encoded
		// as the client does and decoded as a server connection does; then
		// the server's answer — the vectors and the trailing clock — decoded
		// as the client does.
		n := int(x >> 1)
		push := &Push{Worker: n, Vecs: []tensor.Vector{v, {}}}
		pull := &SnapshotPull{Clock: n, Dst: make([]tensor.Vector, 2)}
		sc := &serverConn{}
		sc.dec.reset(waveFrame(push, pull)[5:]) // past the length prefix and opcode
		if err := sc.decodeWave(); err != nil {
			t.Fatalf("decodeWave: %v", err)
		}
		gp, gq := &sc.w.push, &sc.w.pull
		if !sc.w.pushes || !sc.w.pulls || gp.Worker != n || len(gp.Vecs) != 2 || len(gp.Vecs[1]) != 0 || gq.Clock != n {
			t.Fatalf("wave round trip: push %+v pull %+v", sc.w.push, sc.w.pull)
		}
		if err := sameBits(gp.Vecs, push.Vecs); err != nil {
			t.Fatalf("wave round trip: pushed %v", err)
		}
		sc.enc.begin()
		sc.enc.vec(v)
		sc.enc.vec(v)
		sc.enc.uvarint(uint64(n))
		cl := &Client{}
		cl.dec.reset(sc.enc.finish()[4:])
		w := newWave(push, pull, nil)
		clock, err := cl.decodeWave(&w)
		if err != nil || clock != n || cl.dec.remaining() != 0 {
			t.Fatalf("wave response round trip: clock %d, %v, %d bytes left; want %d", clock, err, cl.dec.remaining(), n)
		}
		if err := sameBits(pull.Dst, []tensor.Vector{v, v}); err != nil {
			t.Fatalf("wave response round trip: pulled %v", err)
		}

		// Truncating the frame anywhere must produce an error, never a panic
		// or a silent short read of all three fields.
		if len(want) > 0 {
			d.reset(want[:len(want)-1])
			_, e1 := d.uvarint()
			var e2, e3 error
			if e1 == nil {
				_, e2 = d.str()
			}
			if e1 == nil && e2 == nil {
				_, e3 = d.vecInto(nil)
			}
			if e1 == nil && e2 == nil && e3 == nil {
				t.Fatal("decoding a truncated payload succeeded")
			}
		}
	})
}

func TestDecoderRejectsHugeVecWithoutAllocating(t *testing.T) {
	// A vector header claiming 2^40 elements backed by a 10-byte payload
	// must fail on the length check, not attempt a 8TiB allocation.
	var e encoder
	e.begin()
	e.uvarint(1 << 40)
	e.u8(0)
	var d decoder
	d.reset(e.finish()[4:])
	if _, err := d.vecInto(nil); err == nil {
		t.Fatal("decoding an impossible vector length succeeded")
	}
}

// rawConn dials addr without the protocol preamble.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestTCPVersionMismatchRejectedWithProtocolError(t *testing.T) {
	s, addr := serveFixture(t, 1)
	conn := rawConn(t, addr)
	pre := appendPreamble(nil)
	binary.LittleEndian.PutUint16(pre[4:], wireVersion+1)
	if _, err := conn.Write(pre); err != nil {
		t.Fatal(err)
	}
	payload := readRawFrame(t, conn)
	if len(payload) == 0 || payload[0] != statusProtoErr {
		t.Fatalf("version-mismatch response = %v, want statusProtoErr frame", payload)
	}
	if !strings.Contains(string(payload[1:]), "version") {
		t.Errorf("version-mismatch message = %q", payload[1:])
	}
	waitForStableMalformed(t, s, 1)
}

func TestTCPOversizedFrameRejectedWithProtocolError(t *testing.T) {
	s, addr := serveFixture(t, 1)
	conn := rawConn(t, addr)
	msg := appendPreamble(nil)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	msg = append(msg, hdr[:]...)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	payload := readRawFrame(t, conn)
	if len(payload) == 0 || payload[0] != statusProtoErr {
		t.Fatalf("oversized-frame response = %v, want statusProtoErr frame", payload)
	}
	if !strings.Contains(string(payload[1:]), "size limit") {
		t.Errorf("oversized-frame message = %q", payload[1:])
	}
	waitForStableMalformed(t, s, 1)
}

func TestTCPTruncatedPayloadCountedMalformed(t *testing.T) {
	s, addr := serveFixture(t, 1)
	conn := rawConn(t, addr)
	// A frame header promising 100 bytes, followed by 3 and a hangup: the
	// server cannot respond (the peer is gone) but must count the garbage.
	msg := appendPreamble(nil)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 100)
	msg = append(msg, hdr[:]...)
	msg = append(msg, 1, 2, 3)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitForStableMalformed(t, s, 1)
}

func TestTCPTruncatedRequestPayloadRejectedWithProtocolError(t *testing.T) {
	// A well-framed request whose payload is internally truncated: a wave
	// frame whose push vector promises more elements than the frame holds.
	s, addr := serveFixture(t, 1)
	conn := rawConn(t, addr)
	var e encoder
	frame := appendPreamble(nil)
	e.begin()
	e.u8(opWave)
	e.u8(wavePush)
	e.uvarint(0) // worker
	e.uvarint(7) // a vector of seven floats follows... except nothing does
	frame = append(frame, e.finish()...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload := readRawFrame(t, conn)
	if len(payload) == 0 || payload[0] != statusProtoErr {
		t.Fatalf("truncated-request response = %v, want statusProtoErr frame", payload)
	}
	waitForStableMalformed(t, s, 1)
}

func TestClientSafeForConcurrentUse(t *testing.T) {
	// One Client, many goroutines: the mutex must serialize the wire so no
	// response is mismatched to another caller's request, and every push
	// lands exactly once. Meant for -race.
	const goroutines = 8
	const iters = 50
	s, addr := serveFixture(t, 1)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < iters; i++ {
				switch g % 3 {
				case 0:
					if _, err := pushMap(c, 0, map[string]tensor.Vector{"w": {1, 1}}); err != nil {
						errs <- err
						return
					}
				case 1:
					if m, err := c.Meta(); err != nil || m.Workers != 1 {
						errs <- err
						return
					}
				case 2:
					if _, err := pullAtMap(c, []string{"w"}, 0); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	deadline := time.After(10 * time.Second)
	for g := 0; g < goroutines; g++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent client calls deadlocked")
		}
	}
	if got := s.MalformedRequests(); got != 0 {
		t.Fatalf("MalformedRequests after concurrent use = %d, want 0", got)
	}
	if pushers := (goroutines + 2) / 3; s.GlobalClock() != pushers*iters {
		t.Fatalf("global clock after concurrent use = %d, want %d pushes", s.GlobalClock(), pushers*iters)
	}
}

// waveFrame encodes one wave request the way Client does, for tests that
// then damage it.
func waveFrame(push *Push, pull *SnapshotPull) []byte {
	c := &Client{}
	c.enc.begin()
	c.enc.u8(opWave)
	w := newWave(push, pull, nil)
	c.encodeWave(&w)
	return append([]byte(nil), c.enc.finish()...)
}

// reframe re-prefixes a damaged payload with its true length, so what the
// server sees is a well-framed request whose inside is wrong.
func reframe(payload []byte) []byte {
	var e encoder
	e.begin()
	copy(e.grow(len(payload)), payload)
	return append([]byte(nil), e.finish()...)
}

// malformedWaveFrames are well-framed requests the decoder must refuse — wave
// frames whose inside is wrong, and the retired opPull, opClock and opDistance
// (opcodes 2, 3 and 5), which are unknown ops like any other — shared by the
// table test below and FuzzServerFrame's seed corpus.
func malformedWaveFrames() map[string][]byte {
	push := &Push{Worker: 0, Vecs: []tensor.Vector{{1, 2}}}
	pull := &SnapshotPull{Clock: 0, Dst: []tensor.Vector{nil}}
	fused := waveFrame(push, pull)[4:]
	pushOnly := waveFrame(push, nil)[4:]
	pullOnly := waveFrame(nil, pull)[4:]
	return map[string][]byte{
		"retired opPull":               reframe([]byte{2, 0, 1, 0, 1, 'w'}),
		"retired opClock":              reframe([]byte{3}),
		"retired opDistance":           reframe([]byte{5}),
		"no section":                   reframe([]byte{opWave, 0}),
		"unknown section flag":         reframe(append([]byte{opWave, wavePush | wavePull | 4}, fused[2:]...)),
		"flags byte missing":           reframe([]byte{opWave}),
		"truncated push":               reframe(pushOnly[:len(pushOnly)-3]),
		"truncated pull":               reframe(pullOnly[:len(pullOnly)-1]),
		"fused, push cut off":          reframe(fused[:len(pullOnly)]),
		"trailing bytes":               reframe(append(append([]byte(nil), pullOnly...), 0)),
		"vector longer than its frame": reframe([]byte{opWave, wavePush, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8}),
	}
}

func TestTCPMalformedWaveFramesRejectedWithProtocolError(t *testing.T) {
	for name, frame := range malformedWaveFrames() {
		s, addr := serveFixture(t, 1)
		conn := rawConn(t, addr)
		if _, err := conn.Write(append(appendPreamble(nil), frame...)); err != nil {
			t.Fatal(err)
		}
		payload := readRawFrame(t, conn)
		if len(payload) == 0 || payload[0] != statusProtoErr {
			t.Errorf("%s: response = %v, want statusProtoErr frame", name, payload)
		}
		waitForStableMalformed(t, s, 1)
		if p, q := s.Stats(); p != 0 || q != 0 || s.GlobalClock() != 0 {
			t.Errorf("%s: a malformed frame reached the server: %d pushes, %d pulls, clock %d", name, p, q, s.GlobalClock())
		}
	}
}

func TestTCPv1PreambleRejectedWithProtocolError(t *testing.T) {
	// A v1 peer would go on to send opPush/opPullAt frames this server no
	// longer has, and a v2 peer keysets it no longer reads; both are turned
	// away at the door instead.
	for _, version := range []uint16{1, 2} {
		s, addr := serveFixture(t, 1)
		conn := rawConn(t, addr)
		pre := appendPreamble(nil)
		binary.LittleEndian.PutUint16(pre[4:], version)
		if _, err := conn.Write(pre); err != nil {
			t.Fatal(err)
		}
		payload := readRawFrame(t, conn)
		if len(payload) == 0 || payload[0] != statusProtoErr || !strings.Contains(string(payload[1:]), "version") {
			t.Fatalf("v%d preamble response = %q, want a version protocol error", version, payload)
		}
		waitForStableMalformed(t, s, 1)
	}
}
