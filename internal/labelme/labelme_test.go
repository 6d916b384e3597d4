package labelme

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"nbhd/internal/geo"
	"nbhd/internal/scene"
)

func testScene(t *testing.T) *scene.Scene {
	t.Helper()
	return &scene.Scene{
		ID:   "img-0001-n",
		View: scene.ViewAlongRoad,
		Point: geo.SamplePoint{
			RoadClass: geo.RoadSingleLane,
		},
		Objects: []scene.Object{
			{Indicator: scene.SingleLaneRoad, BBox: scene.Rect{X0: 0.2, Y0: 0.5, X1: 0.8, Y1: 1.0}},
			{Indicator: scene.Streetlight, BBox: scene.Rect{X0: 0.1, Y0: 0.2, X1: 0.16, Y1: 0.6}},
		},
	}
}

func TestFromScene(t *testing.T) {
	rec, err := FromScene(testScene(t), 640, 640)
	if err != nil {
		t.Fatalf("FromScene: %v", err)
	}
	if rec.ImagePath != "img-0001-n.png" {
		t.Errorf("ImagePath = %q", rec.ImagePath)
	}
	if len(rec.Shapes) != 2 {
		t.Fatalf("shapes = %d, want 2", len(rec.Shapes))
	}
	if rec.Shapes[0].Label != "single-lane road" {
		t.Errorf("label = %q", rec.Shapes[0].Label)
	}
	if got := rec.Shapes[0].Points[0][0]; math.Abs(got-0.2*640) > 1e-9 {
		t.Errorf("x0 = %f, want %f", got, 0.2*640)
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if _, err := FromScene(testScene(t), 0, 640); err == nil {
		t.Error("zero width accepted")
	}
}

func TestRecordObjectsRoundTrip(t *testing.T) {
	s := testScene(t)
	rec, err := FromScene(s, 640, 640)
	if err != nil {
		t.Fatalf("FromScene: %v", err)
	}
	objs, err := rec.Objects()
	if err != nil {
		t.Fatalf("Objects: %v", err)
	}
	if len(objs) != len(s.Objects) {
		t.Fatalf("round trip lost objects: %d vs %d", len(objs), len(s.Objects))
	}
	for i := range objs {
		if objs[i].Indicator != s.Objects[i].Indicator {
			t.Errorf("object %d indicator = %v, want %v", i, objs[i].Indicator, s.Objects[i].Indicator)
		}
		if iou := objs[i].BBox.IoU(s.Objects[i].BBox); iou < 0.99 {
			t.Errorf("object %d box drifted: IoU = %f", i, iou)
		}
	}
}

func TestRecordObjectsSwappedCorners(t *testing.T) {
	rec := &Record{
		Version:     FormatVersion,
		ImagePath:   "x.png",
		ImageWidth:  100,
		ImageHeight: 100,
		Shapes: []Shape{{
			Label:     "sidewalk",
			Points:    [][2]float64{{80, 90}, {10, 20}}, // reversed diagonal
			ShapeType: ShapeRectangle,
		}},
	}
	objs, err := rec.Objects()
	if err != nil {
		t.Fatalf("Objects: %v", err)
	}
	want := scene.Rect{X0: 0.1, Y0: 0.2, X1: 0.8, Y1: 0.9}
	if got := objs[0].BBox; math.Abs(got.X0-want.X0)+math.Abs(got.Y1-want.Y1) > 1e-9 {
		t.Errorf("normalized box = %+v, want %+v", got, want)
	}
}

func TestRecordValidate(t *testing.T) {
	valid := func() *Record {
		r, err := FromScene(testScene(t), 640, 640)
		if err != nil {
			t.Fatalf("FromScene: %v", err)
		}
		return r
	}
	tests := []struct {
		name   string
		mutate func(*Record)
	}{
		{"empty path", func(r *Record) { r.ImagePath = "" }},
		{"bad size", func(r *Record) { r.ImageWidth = -5 }},
		{"bad shape type", func(r *Record) { r.Shapes[0].ShapeType = "polygon" }},
		{"wrong point count", func(r *Record) { r.Shapes[0].Points = r.Shapes[0].Points[:1] }},
		{"unknown label", func(r *Record) { r.Shapes[0].Label = "pond" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := valid()
			tt.mutate(r)
			if err := r.Validate(); err == nil {
				t.Error("invalid record accepted")
			}
		})
	}
}

func TestEncodeDecode(t *testing.T) {
	rec, err := FromScene(testScene(t), 640, 640)
	if err != nil {
		t.Fatalf("FromScene: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !strings.Contains(buf.String(), `"shape_type": "rectangle"`) {
		t.Error("encoded JSON missing LabelMe shape_type field")
	}
	var back Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.ImagePath != rec.ImagePath || len(back.Shapes) != len(rec.Shapes) {
		t.Error("round trip lost data")
	}
}

func TestPerfectLabeler(t *testing.T) {
	l, err := NewLabeler(LabelerConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewLabeler: %v", err)
	}
	rec, err := l.Annotate(testScene(t), 640, 640)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	if len(rec.Shapes) != 2 {
		t.Errorf("perfect labeler produced %d shapes, want 2", len(rec.Shapes))
	}
}

func TestLabelerMissRate(t *testing.T) {
	l, err := NewLabeler(LabelerConfig{MissRate: 1, Seed: 1})
	if err != nil {
		t.Fatalf("NewLabeler: %v", err)
	}
	rec, err := l.Annotate(testScene(t), 640, 640)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	if len(rec.Shapes) != 0 {
		t.Errorf("miss rate 1 kept %d shapes", len(rec.Shapes))
	}
}

func TestLabelerSpurious(t *testing.T) {
	l, err := NewLabeler(LabelerConfig{SpuriousRate: 1, Seed: 2})
	if err != nil {
		t.Fatalf("NewLabeler: %v", err)
	}
	rec, err := l.Annotate(testScene(t), 640, 640)
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	if len(rec.Shapes) != 3 {
		t.Errorf("spurious rate 1 produced %d shapes, want 3", len(rec.Shapes))
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("spurious record invalid: %v", err)
	}
}

func TestLabelerJitterKeepsRecordsValid(t *testing.T) {
	l, err := NewLabeler(LabelerConfig{BoxJitter: 0.05, Seed: 3})
	if err != nil {
		t.Fatalf("NewLabeler: %v", err)
	}
	for i := 0; i < 20; i++ {
		rec, err := l.Annotate(testScene(t), 640, 640)
		if err != nil {
			t.Fatalf("Annotate: %v", err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("jittered record invalid: %v", err)
		}
	}
}

func TestLabelerConfigValidate(t *testing.T) {
	bad := []LabelerConfig{
		{MissRate: -0.1},
		{MissRate: 1.1},
		{SpuriousRate: 2},
		{BoxJitter: 0.5},
		{BoxJitter: -0.01},
	}
	for i, cfg := range bad {
		if _, err := NewLabeler(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
