package identity

import (
	"math"
	"testing"
)

// TestKeyDeterministic pins that equal values give equal keys and that
// field order in the struct (not the caller) controls the encoding.
func TestKeyDeterministic(t *testing.T) {
	type req struct {
		App string `json:"app"`
		N   int    `json:"n"`
	}
	a := Key("/v1/run", &req{App: "FFT", N: 4})
	b := Key("/v1/run", &req{App: "FFT", N: 4})
	if a != b {
		t.Fatalf("equal requests produced different keys: %q vs %q", a, b)
	}
	if want := `/v1/run?{"app":"FFT","n":4}`; a != want {
		t.Fatalf("key %q, want %q", a, want)
	}
	if c := Key("/v1/sweep", &req{App: "FFT", N: 4}); c == a {
		t.Fatal("different paths produced the same key")
	}
	if c := Key("/v1/run", &req{App: "FFT", N: 5}); c == a {
		t.Fatal("different requests produced the same key")
	}
}

// TestHashStable pins the hash function: it is part of the fleet's
// compatibility surface, so a change re-shards every key.
func TestHashStable(t *testing.T) {
	cases := map[string]uint64{
		"":                                  14695981039346656037,
		"a":                                 0xaf63dc4c8601ec8c,
		"/v1/run?{\"app\":\"FFT\",\"n\":4}": Hash(`/v1/run?{"app":"FFT","n":4}`),
	}
	for in, want := range cases {
		if got := Hash(in); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", in, got, want)
		}
	}
	if Hash("FFT") == Hash("LU") {
		t.Error("distinct keys collided")
	}
}

// TestMixSpreads checks the rendezvous score spreads keys roughly evenly
// over slots: with 4 slots and many keys, no slot should own an extreme
// share (the affinity router's load-balance property).
func TestMixSpreads(t *testing.T) {
	const slots = 4
	const keys = 4096
	counts := make([]int, slots)
	buf := []byte("key-000000")
	for i := 0; i < keys; i++ {
		buf[4] = byte('0' + i/100000%10)
		buf[5] = byte('0' + i/10000%10)
		buf[6] = byte('0' + i/1000%10)
		buf[7] = byte('0' + i/100%10)
		buf[8] = byte('0' + i/10%10)
		buf[9] = byte('0' + i%10)
		h := Hash(string(buf))
		best, bestScore := 0, uint64(0)
		for s := 0; s < slots; s++ {
			if sc := Mix(h, uint64(s)); sc >= bestScore {
				best, bestScore = s, sc
			}
		}
		counts[best]++
	}
	mean := float64(keys) / slots
	for s, n := range counts {
		if dev := math.Abs(float64(n)-mean) / mean; dev > 0.15 {
			t.Errorf("slot %d owns %d of %d keys (%.0f%% off the even share)", s, n, keys, dev*100)
		}
	}
}

// TestMixStableUnderMembership checks the rendezvous property this fleet
// depends on: removing one slot only remaps the keys that slot owned —
// every other key keeps its shard, so their memo caches stay hot.
func TestMixStableUnderMembership(t *testing.T) {
	owner := func(h uint64, slots []uint64) uint64 {
		best, bestScore := slots[0], Mix(h, slots[0])
		for _, s := range slots[1:] {
			if sc := Mix(h, s); sc > bestScore {
				best, bestScore = s, sc
			}
		}
		return best
	}
	all := []uint64{0, 1, 2, 3}
	without3 := []uint64{0, 1, 2}
	for i := 0; i < 2048; i++ {
		h := Hash(string(rune(i)) + "-key")
		before := owner(h, all)
		after := owner(h, without3)
		if before != 3 && before != after {
			t.Fatalf("key %d moved from slot %d to %d when slot 3 left", i, before, after)
		}
	}
}
