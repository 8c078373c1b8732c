package main

import "math/bits"

// hist is a fixed-size log-linear latency histogram over nanoseconds:
// exact below 256 ns, then 128 buckets per power of two (under 0.8%
// relative width; obs.Histogram's power-of-two buckets are too coarse
// for quantiles compared across runs). Its size never depends on how
// many ops a run completes, so a faster program does not show more
// benchmark memory in peak_heap_mb.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const histBuckets = 256 + 24*128

func bucketOf(v uint32) int {
	if v < 256 {
		return int(v)
	}
	shift := bits.Len32(v) - 8
	return 256 + (shift-1)*128 + int(v>>shift) - 128
}

// bucketRange is the lowest value a bucket holds and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 256 {
		return float64(i), 1
	}
	shift := (i-256)/128 + 1
	mant := (i-256)%128 + 128
	return float64(uint64(mant) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns uint32) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile at nearest rank, interpolated linearly
// inside the bucket that holds that rank.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int(q*float64(h.n)+0.999999), 1)
	cum := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+int(c) >= rank {
			lo, width := bucketRange(i)
			return lo + width*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += int(c)
	}
	return 0
}
