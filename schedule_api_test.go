package hetpipe

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// goldenGantt is the exact VRGQ/vgg19/Nm=4 Gantt chart the pre-refactor
// executor rendered (16 minibatches, width 100): the default
// schedule must keep reproducing it byte for byte.
const goldenGantt = `GPU1 |12#34##.......[1]#5#[2]#6[3]#7#[4]#8[5]#[6]#910[7]#[8]#112#.[9]13[10]1[11]15[12]1[13][14]#[15]#.[16]|
GPU2 |.1#23#4#....[1]..[2]5#[3]6#[4].7[5]#8[6]#..[79#1[8].....1[9]12[1013.[114#[1215[1316[14..[15..[16]...|
GPU3 |..1#2#3#4#[1].[2]#..[35##[46##[57##[68##[7]#.[8]9#10#..[911#[112#[1113[1214#[115#[116#[15..[16......|
GPU4 |....1##[12##[23##[3]4#[4]5#[5]6##[67##[78##[8]....9#[9]10#[111#[112#[113#[1314[1415[1516[16]........|
      0                                                                                           T=2.950s
`

func ganttDeployment(t *testing.T, opts ...Option) *Deployment {
	t.Helper()
	dep, err := New(append([]Option{
		WithModel("vgg19"),
		WithSpecs("VRGQ"),
		WithNm(4),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestGanttGoldenDefaultSchedule(t *testing.T) {
	dep := ganttDeployment(t)
	if dep.Schedule() != "hetpipe-fifo" {
		t.Errorf("default schedule = %q, want hetpipe-fifo", dep.Schedule())
	}
	g, err := dep.Gantt(0, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g != goldenGantt {
		t.Errorf("default-schedule Gantt drifted from the pre-refactor golden:\ngot:\n%s\nwant:\n%s", g, goldenGantt)
	}
}

func TestWithScheduleChangesGantt(t *testing.T) {
	for _, name := range Schedules() {
		dep := ganttDeployment(t, WithSchedule(name))
		if dep.Schedule() != name {
			t.Errorf("Schedule() = %q, want %q", dep.Schedule(), name)
		}
		g, err := dep.Gantt(0, 16, 100)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "hetpipe-fifo" && name != "hetpipe-overlap" && g == goldenGantt {
			// gpipe and 1f1b reorder execution; their charts must differ.
			t.Errorf("%s: Gantt identical to hetpipe-fifo", name)
		}
		res, err := dep.Simulate(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Throughput <= 0 {
			t.Errorf("%s: throughput %g", name, res.Throughput)
		}
	}
}

func TestUnknownScheduleError(t *testing.T) {
	_, err := New(WithModel("vgg19"), WithPolicy("ED"), WithSchedule("pipedream-2bw"))
	if !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("err = %v, want ErrUnknownSchedule", err)
	}
	if err == nil || !strings.Contains(err.Error(), "hetpipe-fifo") {
		t.Errorf("error %v should list the valid schedules", err)
	}
}

func TestWriteChromeTraceAPI(t *testing.T) {
	dep := ganttDeployment(t)
	var buf bytes.Buffer
	if err := dep.WriteChromeTrace(&buf, 0, 8); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// 4 thread names + at least one span per stage per minibatch.
	if len(out.TraceEvents) < 4+8 {
		t.Errorf("trace events = %d, want at least 12", len(out.TraceEvents))
	}
	if err := dep.WriteChromeTrace(&buf, 9, 8); err == nil {
		t.Error("out-of-range virtual worker accepted")
	}
}
