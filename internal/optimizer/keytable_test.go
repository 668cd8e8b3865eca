package optimizer

import (
	"math/rand"
	"testing"
)

// oracleKey is the comparable form of a (planKey, coefLanes) pair for the
// map oracle; the lanes take part only under PreciseNLJ, as in keyTable.
type oracleKey struct {
	k planKey
	c coefLanes
}

// TestKeyTableMatchesMapOracle drives random insert/lookup/reset sequences
// through keyTable beside a Go map: every find must return the slot the
// oracle recorded, slots are dense first-arrival numbers, and a reset
// table behaves like a new one. The key population includes keys equal in
// leaves and order that differ only in one coefficient lane (distinct under
// PreciseNLJ, one key otherwise), and the hashes are drawn from a small
// set so whole groups of distinct keys share a probe chain — and a full
// 64-bit hash. Each relation inserts enough keys to double the 64-entry
// table at least three times.
func TestKeyTableMatchesMapOracle(t *testing.T) {
	for _, precise := range []bool{false, true} {
		rng := rand.New(rand.NewSource(21))
		tab := keyTable{precise: precise, index: make([]int32, 64)}
		for relation := 0; relation < 6; relation++ {
			oracle := make(map[oracleKey]int32)
			hashOf := make(map[oracleKey]uint64)
			var pool []oracleKey
			for len(oracle) < 300+rng.Intn(400) {
				var ok oracleKey
				if len(pool) > 0 && rng.Intn(3) == 0 {
					// A known key again, or its coefficient-lane sibling.
					ok = pool[rng.Intn(len(pool))]
					if rng.Intn(2) == 0 {
						ok.c[rng.Intn(8)] ^= 1 << uint(rng.Intn(64))
					}
				} else {
					ok.k = planKey{
						leaves: [2]uint64{rng.Uint64() & 0x0303030303030303, uint64(rng.Intn(4))},
						order:  [2]uint64{uint64(rng.Intn(8)), 0},
					}
				}
				if !precise {
					ok.c = coefLanes{}
				}
				h, seen := hashOf[ok]
				if !seen {
					// 16 distinct hashes in all: long shared probe chains
					// and equal full hashes on different keys.
					h = uint64(rng.Intn(16)) * 0x9e3779b97f4a7c15
					if rng.Intn(4) == 0 {
						h = keyHash(leafHash(&ok.k.leaves)+coefHash(&ok.c), ok.k.order[0], ok.k.order[1])
					}
					hashOf[ok] = h
				}
				want, known := oracle[ok]
				got := tab.find(&ok.k, &ok.c, h)
				if !known {
					if got != -1 {
						t.Fatalf("precise=%v relation %d: find of an absent key = %d", precise, relation, got)
					}
					want = int32(len(oracle))
					if s := tab.insert(&ok.k, &ok.c, h); s != want {
						t.Fatalf("precise=%v relation %d: insert returned slot %d, want %d", precise, relation, s, want)
					}
					oracle[ok] = want
					pool = append(pool, ok)
					got = tab.find(&ok.k, &ok.c, h)
				}
				if got != want {
					t.Fatalf("precise=%v relation %d: find = %d, oracle %d", precise, relation, got, want)
				}
			}
			if len(tab.index) < 64<<3 {
				t.Fatalf("precise=%v relation %d: %d keys left the table at %d entries, want three doublings", precise, relation, len(oracle), len(tab.index))
			}
			if 2*len(tab.keys) > len(tab.index) {
				t.Fatalf("load above ½: %d keys in %d entries", len(tab.keys), len(tab.index))
			}
			for ok, want := range oracle {
				if got := tab.find(&ok.k, &ok.c, hashOf[ok]); got != want {
					t.Fatalf("precise=%v relation %d: after growth find = %d, oracle %d", precise, relation, got, want)
				}
			}
			tab.reset()
			for ok := range oracle {
				if got := tab.find(&ok.k, &ok.c, hashOf[ok]); got != -1 {
					t.Fatalf("precise=%v relation %d: find after reset = %d", precise, relation, got)
				}
			}
		}
	}
}

// TestKeyHashAdditive pins the identity candidate hashing rests on: leaf
// words (and coefficient lanes) of disjoint relation sets occupy disjoint
// bytes, so the hash of their OR is the sum of their hashes.
func TestKeyHashAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 10000; i++ {
		var a, b, or [2]uint64
		var ca, cb, cor coefLanes
		for rel := 0; rel < 16; rel++ {
			leaf := uint64(1+rng.Intn(255)) << uint((rel&7)*8)
			lane := uint64(1+rng.Intn(1<<20)) << uint((rel&1)*32)
			switch rng.Intn(3) {
			case 0:
				a[rel>>3] |= leaf
				ca[rel>>1] |= lane
			case 1:
				b[rel>>3] |= leaf
				cb[rel>>1] |= lane
			}
		}
		for w := range or {
			or[w] = a[w] | b[w]
		}
		for w := range cor {
			cor[w] = ca[w] | cb[w]
		}
		if got, want := leafHash(&or), leafHash(&a)+leafHash(&b); got != want {
			t.Fatalf("leafHash(%x|%x) = %x, sum of parts %x", a, b, got, want)
		}
		if got, want := coefHash(&cor), coefHash(&ca)+coefHash(&cb); got != want {
			t.Fatalf("coefHash(%x|%x) = %x, sum of parts %x", ca, cb, got, want)
		}
	}
}
