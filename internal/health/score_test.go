package health

import (
	"testing"
	"time"
)

// TestGrayScoreFromLatency feeds passive latency evidence only (no probe
// loop): a node whose RTT sits far above its peers' median scores 1 and
// is graded degraded after the streak, recovers below the hysteresis
// threshold once it is fast again, and peers at the median score 0.
func TestGrayScoreFromLatency(t *testing.T) {
	r := newRig(t, 1)
	m := NewMonitor(r.ktxs[0], WithInterval(0), WithIndirectProbes(0),
		WithOutlierFactor(3), WithDegradeScore(0.5), WithDegradeAfter(2), WithEWMAAlpha(0.5))
	defer m.Close()
	for i := 0; i < 8; i++ {
		m.ReportLatency(2, time.Millisecond)
		m.ReportLatency(3, time.Millisecond)
		m.ReportLatency(4, 10*time.Millisecond)
	}
	if s := m.Score(4); s != 1 {
		t.Errorf("slow node score = %v, want 1", s)
	}
	if st := m.Status(4); st.State != StateDegraded || st.Direction != DirectionNone || st.RTT < 5*time.Millisecond {
		t.Errorf("slow node status = %+v, want degraded, no direction, RTT near 10ms", st)
	}
	if s := m.Score(2); s != 0 {
		t.Errorf("median node score = %v, want 0", s)
	}

	for i := 0; i < 20; i++ {
		m.ReportLatency(4, time.Millisecond)
	}
	if st := m.Status(4); st.State != StateAlive || st.Score >= 0.25 {
		t.Errorf("recovered node status = %+v, want alive below half the degrade score", st)
	}

	// Loss is evidence too; misses escalate, and suspects score 1.
	m.ReportFailure(3)
	if st := m.Status(3); st.Loss == 0 || st.State != StateAlive {
		t.Errorf("after one miss: %+v, want loss recorded, still alive", st)
	}
	m.ReportFailure(3)
	if m.State(3) != StateSuspect || m.Score(3) != 1 {
		t.Errorf("after two misses: state %v score %v, want suspect scoring 1", m.State(3), m.Score(3))
	}

	// Unknown nodes carry no evidence.
	if st := m.Status(9); st.State != StateAlive || m.Score(9) != 0 {
		t.Errorf("unknown node: %+v score %v", st, m.Score(9))
	}
}

// TestGrayScoreNeedsPeers: one timed node has no population to be an
// outlier in, and an outlier factor of 1 disables RTT scoring.
func TestGrayScoreNeedsPeers(t *testing.T) {
	r := newRig(t, 1)
	lone := NewMonitor(r.ktxs[0], WithInterval(0), WithIndirectProbes(0))
	defer lone.Close()
	lone.ReportLatency(2, time.Second)
	if s := lone.Score(2); s != 0 {
		t.Errorf("single timed node score = %v, want 0", s)
	}

	off := NewMonitor(r.ktxs[0], WithInterval(0), WithIndirectProbes(0), WithOutlierFactor(1))
	defer off.Close()
	for i := 0; i < 4; i++ {
		off.ReportLatency(2, time.Millisecond)
		off.ReportLatency(3, time.Millisecond)
		off.ReportLatency(4, time.Second)
	}
	if s := off.Score(4); s != 0 {
		t.Errorf("score with RTT scoring disabled = %v, want 0", s)
	}
}

// TestIndirectProbeHoldsDegraded: a one-way partition stops node 1's
// probes reaching node 3, but node 2 still reaches it. Node 1's monitor
// asks node 2 to ping node 3 on its behalf, and on the relayed answer
// holds node 3 at degraded, with a direction, instead of letting it go
// dead. Healing the link brings it back to alive.
func TestIndirectProbeHoldsDegraded(t *testing.T) {
	r := newRig(t, 3)
	m := NewMonitor(r.ktxs[0],
		WithInterval(10*time.Millisecond), WithProbeTimeout(5*time.Millisecond),
		WithSuspectAfter(2), WithDeadAfter(4), WithIndirectProbes(1))
	defer m.Close()
	relay := NewMonitor(r.ktxs[1], WithInterval(0)) // serves relay requests only
	defer relay.Close()
	m.Watch(2)
	m.Watch(3)

	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (node 3: %+v)", what, m.Status(3))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wait("both peers alive", func() bool {
		return m.Status(2).LastSeen.After(time.Time{}) && m.Status(3).LastSeen.After(time.Time{})
	})
	r.net.PartitionOneWay(1, 3)
	wait("node 3 held at degraded", func() bool {
		st := m.Status(3)
		return st.State == StateDegraded && st.Direction != DirectionNone
	})
	if m.indirectHits.Load() == 0 || m.indirects.Load() == 0 {
		t.Errorf("indirect probes = %d, confirmations = %d; want both > 0", m.indirects.Load(), m.indirectHits.Load())
	}
	if m.State(2) != StateAlive {
		t.Errorf("relay node state = %v, want alive", m.State(2))
	}
	r.net.Heal(1, 3)
	wait("node 3 alive after heal", func() bool { return m.State(3) == StateAlive })
}

// TestBreakerPressure: answered-but-degraded calls count half a failure
// each while closed, a pressured half-open probe closes the breaker one
// failure from re-opening, and stragglers leave an open breaker cooling.
func TestBreakerPressure(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second})
	for i := 0; i < 3; i++ {
		b.Pressure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("after 3 pressures: %v, want closed (1.5 failures)", b.State())
	}
	b.Pressure()
	if b.State() != BreakerOpen {
		t.Fatalf("after 4 pressures: %v, want open (2 failures)", b.State())
	}
	b.Pressure() // a straggler while open
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("a pressure report reopened or shortened the cooldown")
	}
	clk.advance(time.Second + time.Millisecond)
	if !b.Allow() || b.State() != BreakerHalfOpen {
		t.Fatalf("no half-open probe after the cooldown (state %v)", b.State())
	}
	b.Pressure()
	if b.State() != BreakerClosed {
		t.Fatalf("pressured probe: %v, want closed", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("one failure after a pressured probe: %v, want open", b.State())
	}
}
