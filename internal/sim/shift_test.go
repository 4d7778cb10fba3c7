package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestQuantizedSumsAreExact: Quantize lands on a multiple of Quantum within
// half a quantum, and below Horizon sums of such multiples are exact —
// associative, and undone by subtraction.
func TestQuantizedSumsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := func() float64 { return Quantize(math.Exp(rng.NormFloat64()*3) * 1e-2) }
	for range 100000 {
		d := math.Exp(rng.NormFloat64()*3) * 1e-2
		got := Quantize(d)
		if n := got / Quantum; n != math.Trunc(n) || math.Abs(got-d) > Quantum/2 {
			t.Fatalf("Quantize(%v) = %v: %v quanta, off by %v", d, got, n, got-d)
		}
		a, b, c := q(), q(), q()
		if a+b+c >= float64(Horizon) {
			continue
		}
		if (a+b)+c != a+(b+c) || (a+b)-b != a {
			t.Fatalf("%v, %v, %v: sums round", a, b, c)
		}
	}
	if big := float64(Horizon) + 3*2*Quantum; Quantize(big) != big {
		t.Errorf("Quantize moved %v, a multiple of the quantum", big)
	}
}

// shiftFixture is an engine in mid-run: events pending at equal and distinct
// times, some of the stamped handler (payload a count and an instant), one
// cancelled, and a resource with a job in service and two waiting.
type shiftFixture struct {
	eng     *Engine
	res     *Resource
	stamped int32
	fired   []firing
}

type firing struct {
	at   Time
	a, b int32
	x    float64
}

func newShiftFixture() *shiftFixture {
	f := &shiftFixture{eng: New()}
	rec := func(a, b int32, x float64) { f.fired = append(f.fired, firing{f.eng.Now(), a, b, x}) }
	plain := f.eng.Register(rec)
	f.stamped = f.eng.Register(rec)
	f.res = NewResource(f.eng, rec)
	at := func(n int) Time { return Time(n) * 3 / 8 }
	f.eng.AtID(at(2), plain, 0, 0, 0) // fires before the fixture is read
	f.eng.Step()
	f.eng.AtID(at(5), f.stamped, 7, 1, float64(f.eng.Now()))
	f.eng.AtID(at(5), plain, 0, 2, 0.5)
	f.eng.AtID(at(4), f.stamped, 6, 3, float64(f.eng.Now()))
	f.eng.Cancel(f.eng.AtID(at(4), plain, 0, 4, 0))
	f.eng.AtID(at(9), plain, 0, 5, 0.25)
	for i := range int32(3) {
		f.res.Submit(Duration(at(1)), 8+i, 6)
	}
	return f
}

// TestShiftIsATranslation: a shifted engine and resource read the same
// relative state, and fire exactly the events the unshifted ones do, dt later
// and with the stamped handler's count da higher and instant dt later. A
// shift that would reach Horizon changes nothing.
func TestShiftIsATranslation(t *testing.T) {
	const dt, da = Time(1024 + 5.0/8), int32(40)
	ref, got := newShiftFixture(), newShiftFixture()
	before := got.eng.AppendState(nil, got.stamped, 0)
	resBefore := got.res.AppendState(nil, 0)
	busy := got.res.BusyTime()
	if !got.eng.Shift(dt, got.stamped, da) {
		t.Fatal("a shift far below the horizon was refused")
	}
	got.res.Shift(dt, da, 3)
	if after := got.eng.AppendState(nil, got.stamped, da); !slices.Equal(after, before) {
		t.Errorf("relative engine state changed under the shift:\n%v\n%v", after, before)
	}
	if after := got.res.AppendState(nil, da); !slices.Equal(after, resBefore) {
		t.Errorf("relative resource state changed under the shift:\n%v\n%v", after, resBefore)
	}
	if got.eng.Now() != ref.eng.Now()+dt || got.res.BusyTime() != busy+3 {
		t.Errorf("clock %v, busy %v after the shift", got.eng.Now(), got.res.BusyTime())
	}
	ref.fired, got.fired = nil, nil
	if err := ref.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := got.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(ref.fired)
	for i := range want {
		want[i].at += dt
		if w := &want[i]; w.b == 1 || w.b == 3 || w.b == 6 {
			w.a += da
			if w.b != 6 {
				w.x += float64(dt)
			}
		}
	}
	if !slices.Equal(got.fired, want) {
		t.Errorf("shifted run fired\n%v\nwant\n%v", got.fired, want)
	}

	far := newShiftFixture()
	now, state := far.eng.Now(), far.eng.AppendState(nil, far.stamped, 0)
	if far.eng.Shift(Horizon-Time(9*3)/8, far.stamped, da) { // the last event is at 9*3/8
		t.Error("a shift carrying the last event to the horizon was allowed")
	}
	if far.eng.Now() != now || !slices.Equal(far.eng.AppendState(nil, far.stamped, 0), state) {
		t.Error("a refused shift changed the engine")
	}
}
