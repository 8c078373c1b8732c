package main

import (
	"bytes"
	"slices"
	"testing"
)

// TestGenerateIsSeeded checks that a workload's inputs depend on the seed
// alone: the same seed yields the same per-caller op sequence, values and
// preload, and a different seed yields a different op sequence.
func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := generate(w, 7), generate(w, 7), generate(w, 8)
			for c := 0; c < w.callers; c++ {
				if !slices.Equal(a.ops[c], b.ops[c]) || !slices.Equal(a.mgets[c], b.mgets[c]) {
					t.Errorf("caller %d: same seed gave different op sequences", c)
				}
				if !slices.Equal(a.initial[c], b.initial[c]) {
					t.Errorf("caller %d: same seed gave different preloads", c)
				}
				if !slices.EqualFunc(a.values[c], b.values[c], bytes.Equal) {
					t.Errorf("caller %d: same seed gave different values", c)
				}
				if slices.Equal(a.ops[c], other.ops[c]) {
					t.Errorf("caller %d: seeds 7 and 8 gave the same op sequence", c)
				}
			}
		})
	}
}

// TestParseKey checks that the traced run recovers the owning caller and
// key index from a key embedded in a payload.
func TestParseKey(t *testing.T) {
	payload := append([]byte{0xF8, 1, 2, 'p', 'b', 'x'}, keyName(7, 421)...)
	c, k, ok := parseKey(payload)
	if !ok || c != 7 || k != 421 {
		t.Fatalf("parseKey = (%d, %d, %v), want (7, 421, true)", c, k, ok)
	}
	if _, _, ok := parseKey([]byte("no key here")); ok {
		t.Fatal("parseKey found a key in a payload without one")
	}
}
