package ps

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

// halves is a net.Conn whose two directions are separate pipes, so the peer
// can end the request stream (closing its write half) and still collect every
// response — net.Pipe alone has no half-close.
type halves struct {
	net.Conn // the response pipe: Write goes here
	in       net.Conn
}

func (h halves) Read(p []byte) (int, error) { return h.in.Read(p) }

// FuzzServerFrame throws arbitrary bytes — after a valid preamble — at a real
// serverConn and holds the decoder to what a network-facing parser owes: it
// never panics, never blocks past a deadline (a pull gated on a clock nobody
// will push is released by closing the server, as cluster does), never
// allocates from an announced length rather than from bytes received, answers
// only well-formed frames, and lets no request pass silently — every complete
// frame is answered unless a malformed one (counted) ended the connection
// first.
func FuzzServerFrame(f *testing.F) {
	push := &Push{Worker: 0, Vecs: []tensor.Vector{{1, 2}}}
	pull := &SnapshotPull{Clock: 1, Dst: []tensor.Vector{nil}}
	f.Add(waveFrame(push, nil))
	f.Add(waveFrame(nil, &SnapshotPull{Dst: []tensor.Vector{nil}}))
	f.Add(waveFrame(push, pull))
	f.Add(append(waveFrame(push, pull), waveFrame(nil, &SnapshotPull{Clock: 9, Dst: []tensor.Vector{nil}})...)) // blocks
	for _, op := range []byte{opMeta, 0, 99} {
		f.Add(reframe([]byte{op}))
	}
	for _, frame := range malformedWaveFrames() {
		f.Add(frame)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, opMeta}) // announces 64 MiB - 1, sends one byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})         // oversized
	f.Add([]byte{7, 0})                           // cut mid-header

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewServer(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register("w", []float64{0, 0}); err != nil {
			t.Fatal(err)
		}
		reqW, reqR := net.Pipe()
		respR, respW := net.Pipe()
		served := make(chan struct{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		go func() {
			defer close(served)
			defer respW.Close()
			sc := &serverConn{conn: halves{Conn: respW, in: reqR}, s: s, in: newFrameReader(reqR)}
			sc.serve()
		}()
		go func() {
			reqW.Write(append(appendPreamble(nil), data...))
			reqW.Close()
		}()
		// A gated pull nobody will satisfy is legitimate; what releases it in
		// a live run is the server closing, so that is what ends it here.
		release := time.AfterFunc(20*time.Millisecond, s.Close)
		defer release.Stop()

		responses := 0
		respR.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(respR, hdr[:]); err != nil {
				if err != io.EOF {
					t.Fatalf("response stream ended badly (blocked past the deadline?): %v", err)
				}
				break
			}
			payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(respR, payload); err != nil {
				t.Fatalf("torn response frame: %v", err)
			}
			if len(payload) == 0 || payload[0] > statusProtoErr {
				t.Fatalf("response %d is not a status frame: %x", responses, payload)
			}
			responses++
		}
		<-served
		runtime.ReadMemStats(&after)
		reqR.Close()

		// How many complete frames the input holds, and whether anything
		// follows the last one.
		complete, rest := 0, data
		for len(rest) >= 4 {
			n := int(binary.LittleEndian.Uint32(rest))
			if n > maxFrame || len(rest)-4 < n {
				break
			}
			complete, rest = complete+1, rest[4+n:]
		}
		malformed := int(s.MalformedRequests())
		switch {
		case malformed == 0 && (responses != complete || len(rest) != 0):
			t.Fatalf("%d complete frames + %d stray bytes drew %d responses and no malformed count", complete, len(rest), responses)
		case malformed > 0 && responses > complete+1:
			t.Fatalf("%d responses to %d complete frames", responses, complete)
		case int(s.FramesServed()) > complete:
			t.Fatalf("served %d frames of %d", s.FramesServed(), complete)
		}
		// Everything the connection allocated is proportional to what it was
		// sent (buffers double) — a 64 MiB announcement
		// backed by one byte must not cost 64 MiB. The constant absorbs the
		// harness's own goroutines, pipes and timers.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data))+(1<<20) {
			t.Fatalf("%d input bytes made the server allocate %d", len(data), grew)
		}
	})
}

// responseFrame encodes one response frame for FuzzClientFrame's seeds.
func responseFrame(build func(e *encoder)) []byte {
	var e encoder
	e.begin()
	build(&e)
	return append([]byte(nil), e.finish()...)
}

// FuzzClientFrame is FuzzServerFrame's mirror: arbitrary bytes stand in for a
// server's responses to a Client that makes each call it has — a push, a
// pull, a fused exchange and Meta — while the peer drains the requests and
// ends the response stream once everything is written. Every call must
// return, with an error or a result a server could have sent (no negative
// clock, worker count or dimension); a call answered without failing the
// client consumed one complete frame; and what the client allocates follows
// the bytes it was sent, not the lengths they announce.
func FuzzClientFrame(f *testing.F) {
	ack := responseFrame(func(e *encoder) { e.u8(statusOK); e.uvarint(1) })
	snap := responseFrame(func(e *encoder) { e.u8(statusOK); e.vec(tensor.Vector{1, 2}) })
	fused := responseFrame(func(e *encoder) { e.u8(statusOK); e.vec(tensor.Vector{1, 2}); e.uvarint(1) })
	meta := responseFrame(func(e *encoder) { e.u8(statusOK); e.uvarint(1); e.uvarint(1); e.str("w"); e.uvarint(2) })
	appErr := responseFrame(func(e *encoder) { e.u8(statusAppErr); e.str("ps: worker 7 out of range [0,1)") })
	protoErr := responseFrame(func(e *encoder) { e.u8(statusProtoErr); e.str("ps: unknown op 9") })
	answers := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	f.Add(answers(ack, snap, fused, meta))
	f.Add(answers(appErr, snap, fused, meta))
	f.Add(answers(ack, protoErr, fused, meta))
	f.Add(responseFrame(func(e *encoder) { e.u8(9) }))                               // unknown status
	f.Add(responseFrame(func(e *encoder) { e.u8(statusOK); e.uvarint(1 << 63) }))    // clock overflows int
	f.Add(responseFrame(func(e *encoder) { e.u8(statusOK); e.uvarint(1); e.u8(0) })) // trailing byte
	f.Add(responseFrame(func(e *encoder) { e.u8(statusOK); e.uvarint(1 << 40) }))    // vector longer than its frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, statusOK})                                  // announces 64 MiB - 1, sends one byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                            // oversized
	f.Add([]byte{7, 0})                                                              // cut mid-header

	f.Fuzz(func(t *testing.T, data []byte) {
		reqR, reqW := net.Pipe()
		respR, respW := net.Pipe()
		var peer sync.WaitGroup
		peer.Add(2)
		go func() {
			defer peer.Done()
			io.Copy(io.Discard, reqR) // ends when the client closes
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		go func() {
			defer peer.Done()
			respW.Write(data)
			respW.Close()
		}()
		c := newClient(halves{Conn: reqW, in: respR})
		keys := []string{"w"}
		c.layout = keys // as a Meta would have told it, so every call goes out
		watchdog := time.AfterFunc(10*time.Second, func() { respR.Close() })

		push := &Push{Worker: 0, Vecs: []tensor.Vector{{1, 2}}}
		answered := 0 // calls that consumed a frame without failing the client
		call := func(name string, do func() error) {
			err := do()
			if c.err == nil {
				answered++
			} else if err != c.err {
				t.Fatalf("%s failed the client with %v but returned %v", name, c.err, err)
			}
		}
		clockOK := func(name string, clock int, err error) error {
			if err == nil && clock < 0 {
				t.Fatalf("%s returned clock %d", name, clock)
			}
			return err
		}
		call("push", func() error {
			clock, err := c.PushOrdered(0, keys, push.Vecs)
			return clockOK("push", clock, err)
		})
		call("pull", func() error {
			return c.PullAtInto([]tensor.Vector{nil}, keys, 1)
		})
		call("fused", func() error {
			clock, err := c.Exchange(push, &SnapshotPull{Clock: 1, Dst: []tensor.Vector{nil}})
			return clockOK("fused", clock, err)
		})
		call("meta", func() error {
			m, err := c.Meta()
			if err == nil && m.Workers < 0 {
				t.Fatalf("meta returned %d workers", m.Workers)
			}
			for k, d := range m.Dims {
				if d < 0 {
					t.Fatalf("meta returned dimension %d for %q", d, k)
				}
			}
			return err
		})
		if !watchdog.Stop() {
			t.Fatal("a client call blocked although the peer had hung up")
		}
		c.Close()
		respR.Close() // releases the peer if the calls left some of data unread
		peer.Wait()
		runtime.ReadMemStats(&after)

		complete, rest := 0, data
		for len(rest) >= 4 {
			n := int(binary.LittleEndian.Uint32(rest))
			if n > maxFrame || len(rest)-4 < n {
				break
			}
			complete, rest = complete+1, rest[4+n:]
		}
		if answered > complete {
			t.Fatalf("%d calls answered from %d complete frames", answered, complete)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data))+(1<<20) {
			t.Fatalf("%d response bytes made the client allocate %d", len(data), grew)
		}
	})
}
