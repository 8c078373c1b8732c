package replica

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestSessionedWriteAppliesOnce: a write stamped with a session identity
// applies once at the primary; the same identity presented again is
// answered from the dedup table — result or error alike — without
// running the write a second time.
func TestSessionedWriteAppliesOnce(t *testing.T) {
	w := newRepWorld(t, 2)
	p := w.proxy(t, 0)
	ctx := context.Background()
	stamped := core.ContextWithSession(ctx, 0xD00D, 1)
	for i := 0; i < 3; i++ {
		res, err := p.Invoke(stamped, "incr", "k")
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != int64(1) {
			t.Fatalf("presentation %d of one identity = %v, want 1", i, res[0])
		}
	}
	if got := w.svc.get("k"); got != 1 {
		t.Errorf("primary k = %d after three presentations, want 1", got)
	}
	if res, err := p.Invoke(core.ContextWithSession(ctx, 0xD00D, 2), "incr", "k"); err != nil || res[0] != int64(2) {
		t.Errorf("next identity = %v, %v; want 2", res, err)
	}

	// A refused write caches its error under its identity too.
	failed := core.ContextWithSession(ctx, 0xD00D, 3)
	for i := 0; i < 2; i++ {
		_, err := p.Invoke(failed, "zap")
		var ie *core.InvokeError
		if !errors.As(err, &ie) || ie.Code != core.CodeNoSuchMethod {
			t.Fatalf("presentation %d of a refused write: %v, want CodeNoSuchMethod", i, err)
		}
	}

	// The other member applied each write exactly once as well.
	q := w.proxy(t, 1)
	if res, err := q.Invoke(ctx, "read", "k"); err != nil || res[0] != int64(2) {
		t.Errorf("second member reads k = %v, %v; want 2", res, err)
	}
}

// TestSplitSnapshotState: the exported splitter undoes the combined
// [dedup][service] framing and passes a legacy plain blob through whole.
func TestSplitSnapshotState(t *testing.T) {
	dedup, svc := []byte("dedup-table"), []byte("service-state")
	d, s := SplitSnapshotState(combineSnapshot(dedup, svc))
	if !bytes.Equal(d, dedup) || !bytes.Equal(s, svc) {
		t.Errorf("split = (%q, %q), want (%q, %q)", d, s, dedup, svc)
	}
	legacy := []byte{0x01, 0x02}
	if d, s := SplitSnapshotState(legacy); d != nil || !bytes.Equal(s, legacy) {
		t.Errorf("legacy split = (%q, %q), want (nil, %q)", d, s, legacy)
	}
}
