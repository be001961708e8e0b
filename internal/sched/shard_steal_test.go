package sched

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/tasks"
)

// stubRunner is a no-op task body: it needs the module configured (so the
// scheduler pays every stream the placement implies) but drives no
// hardware, keeping steal tests about dispatch order rather than kernel
// runtime.
type stubRunner struct{ module string }

func (r stubRunner) Name() string               { return "stub/" + r.module }
func (r stubRunner) Module() string             { return r.module }
func (r stubRunner) Run(*platform.System) error { return nil }

var _ tasks.Runner = stubRunner{}

// TestShardStealTakesOldestPrefix drives one steal synchronously and pins
// its FIFO contract: the thief takes the victim's oldest queue entries —
// at most half the queue — and both sides keep their relative order. The
// test is white-box on purpose: submitLocked enqueues without
// dispatching, so the victim's queue is in a known state when the thief's
// dispatch round runs on the test goroutine.
func TestShardStealTakesOldestPrefix(t *testing.T) {
	policy, err := PolicyByName("lru")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{Sys32: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{Batch: 1, Policy: policy, Shards: 2})
	if s.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", s.Shards())
	}
	victim, thief := s.shards[0], s.shards[1]

	const n = 8
	chs := make([]<-chan Result, 0, n)
	victim.mu.Lock()
	for i := 0; i < n; i++ {
		chs = append(chs, victim.submitLocked(stubRunner{module: "jenkins"}, 0, false))
	}
	victim.mu.Unlock()

	// The thief's dispatch round finds no local work and one idle slot:
	// it must steal (n+1)/2 = 4 oldest requests (ids 1..4), dispatch the
	// head (id 1), and queue the rest in order.
	thief.mu.Lock()
	thief.dispatchLocked()
	if thief.stats.Steals != 1 || thief.stats.StolenRequests != 4 {
		t.Errorf("thief stole %d times / %d requests, want 1 / 4",
			thief.stats.Steals, thief.stats.StolenRequests)
	}
	gotThief := pendingIDs(thief)
	thief.mu.Unlock()

	victim.mu.Lock()
	gotVictim := pendingIDs(victim)
	victim.mu.Unlock()

	wantThief, wantVictim := []uint64{2, 3, 4}, []uint64{5, 6, 7, 8}
	if !equalIDs(gotThief, wantThief) {
		t.Errorf("thief queue after steal = %v, want oldest prefix %v (head dispatched)", gotThief, wantThief)
	}
	if !equalIDs(gotVictim, wantVictim) {
		t.Errorf("victim queue after steal = %v, want suffix %v in order", gotVictim, wantVictim)
	}

	// Release the victim's side and drain everything.
	victim.mu.Lock()
	victim.dispatchLocked()
	victim.mu.Unlock()
	for i, ch := range chs {
		if r := <-ch; r.Err != nil {
			t.Fatalf("request %d: %v", i+1, r.Err)
		}
	}
	s.Wait()
	st := s.Stats()
	if st.Requests != n || st.Done != n || st.Errors != 0 {
		t.Fatalf("requests/done/errors = %d/%d/%d, want %d/%d/0", st.Requests, st.Done, st.Errors, n, n)
	}
	if st.Steals < 1 || st.StolenRequests < 4 {
		t.Errorf("aggregate steals = %d/%d requests, want at least the pinned 1/4",
			st.Steals, st.StolenRequests)
	}
}

func pendingIDs(sh *shard) []uint64 {
	ids := make([]uint64, len(sh.pending))
	for i, r := range sh.pending {
		ids[i] = r.id
	}
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardConservationUnderStealing drives the full seeded mix through
// four single-member shards with the prefetch pipeline on — steals,
// speculative streams and cross-shard routing all active — and checks
// every conservation law the aggregate Stats promise. Run under -race
// this is the steal path's data-race probe.
func TestShardConservationUnderStealing(t *testing.T) {
	policy, err := PolicyByName("mincost")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predict.New("markov")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := ParseMix("sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	w, err := GenWorkload(7, n, mix)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{Sys32: 2, Sys64: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPlanning(true)
	s := New(p, Options{Batch: 2, Policy: policy, Shards: 4, Prefetch: true, Predictor: pred})
	for i, ch := range submitAll(s, w) {
		if r := <-ch; r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, w[i].Name(), r.Err)
		}
	}
	s.Wait()
	st := s.Stats()

	if st.Requests != n || st.Done != n || st.Errors != 0 {
		t.Fatalf("requests/done/errors = %d/%d/%d, want %d/%d/0", st.Requests, st.Done, st.Errors, n, n)
	}
	if st.Hits+st.Misses != st.Done {
		t.Errorf("hits %d + misses %d != done %d", st.Hits, st.Misses, st.Done)
	}
	if st.PrefetchBytes != st.PrefetchConsumed+st.PrefetchWasted+st.PrefetchPending {
		t.Errorf("speculative bytes leaked: streamed %d, consumed %d + wasted %d + pending %d",
			st.PrefetchBytes, st.PrefetchConsumed, st.PrefetchWasted, st.PrefetchPending)
	}
	var modReqs uint64
	for _, ms := range st.Modules {
		modReqs += ms.Requests
	}
	if modReqs != n {
		t.Errorf("per-module requests sum to %d, want %d", modReqs, n)
	}
	if len(st.Slots) != p.Slots() || len(st.BusyTime) != p.Slots() {
		t.Fatalf("stats carry %d slots / %d busy entries, want %d (pool order stitched across shards)",
			len(st.Slots), len(st.BusyTime), p.Slots())
	}
	for i := 1; i < len(st.Slots); i++ {
		a, b := st.Slots[i-1], st.Slots[i]
		if b.Member < a.Member || (b.Member == a.Member && b.Region <= a.Region) {
			t.Fatalf("slot order not pool order at %d: %+v then %+v", i, a, b)
		}
	}
}
