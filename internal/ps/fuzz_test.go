package ps

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
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
	push := &Push{Worker: 0, Keys: []string{"w"}, Vecs: []tensor.Vector{{1, 2}}}
	pull := &SnapshotPull{Clock: 1, Keys: []string{"w"}, Dst: []tensor.Vector{nil}}
	f.Add(waveFrame(push, nil))
	f.Add(waveFrame(nil, &SnapshotPull{Keys: []string{"w"}, Dst: []tensor.Vector{nil}}))
	f.Add(waveFrame(push, pull))
	f.Add(append(waveFrame(push, pull), waveFrame(nil, &SnapshotPull{Clock: 9, Keys: []string{"w"}, Dst: []tensor.Vector{nil}})...)) // blocks
	for _, op := range []byte{opClock, opMeta, opDistance, 0, 99} {
		f.Add(reframe([]byte{op}))
	}
	for _, frame := range malformedWaveFrames() {
		f.Add(frame)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, opClock}) // announces 64 MiB - 1, sends one byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})          // oversized
	f.Add([]byte{7, 0})                            // cut mid-header

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
			sc := &serverConn{conn: halves{Conn: respW, in: reqR}, s: s, br: bufio.NewReaderSize(reqR, connReadBuf)}
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
		// sent (buffers double, responses echo keys) — a 64 MiB announcement
		// backed by one byte must not cost 64 MiB. The constant absorbs the
		// harness's own goroutines, pipes and timers.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data))+(1<<20) {
			t.Fatalf("%d input bytes made the server allocate %d", len(data), grew)
		}
	})
}
