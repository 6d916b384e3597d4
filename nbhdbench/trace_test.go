package main

import (
	"context"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func span(start, end int) Span { return Span{Start: ms(start), End: ms(end)} }

func TestSelfTime(t *testing.T) {
	parent := span(0, 100)
	cases := []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"one child", []Span{span(10, 30)}, ms(80)},
		{"overlapping children count once", []Span{span(10, 30), span(20, 50)}, ms(60)},
		{"children clipped to the parent", []Span{span(-20, 10), span(90, 130)}, ms(80)},
		{"disjoint and nested", []Span{span(10, 20), span(40, 60), span(45, 50)}, ms(70)},
		{"child outside the parent", []Span{span(100, 120)}, ms(100)},
		{"child covers everything", []Span{span(-5, 105)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderLinksChildrenThroughContext(t *testing.T) {
	rec := NewRecorder()
	ctx, outer := rec.Start(context.Background(), "outer")
	_, inner := rec.Start(ctx, "inner")
	inner.Close(2)
	outer.Close(0)
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	in, out := spans[0], spans[1]
	if in.Name != "inner" || out.Name != "outer" {
		t.Fatalf("spans recorded out of close order: %q then %q", in.Name, out.Name)
	}
	if out.Parent != 0 || in.Parent != out.ID || in.Items != 2 {
		t.Fatalf("inner %+v, outer %+v: want inner parented to outer with 2 items", in, out)
	}
	if in.Start < out.Start || in.End > out.End {
		t.Fatalf("inner [%v,%v] is not inside outer [%v,%v]", in.Start, in.End, out.Start, out.End)
	}
	if kids := childrenOf(spans)[out.ID]; len(kids) != 1 || kids[0].ID != in.ID {
		t.Fatalf("childrenOf(outer) = %+v", kids)
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := NewRecorder()
	ctx, root := rec.Start(context.Background(), "root")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				_, o := rec.Start(ctx, "leaf")
				o.Close(1)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	root.Close(0)
	spans := rec.Spans()
	if len(spans) != 801 {
		t.Fatalf("recorded %d spans, want 801", len(spans))
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("span ID %d recorded twice", s.ID)
		}
		ids[s.ID] = true
	}
	if kids := childrenOf(spans)[spans[len(spans)-1].ID]; len(kids) != 800 {
		t.Fatalf("root has %d children, want 800", len(kids))
	}
}
