package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFrontierBitsPrimitives drives set/test through a model map over
// sizes straddling word boundaries (n not a multiple of 64 included),
// then checks member enumeration is exactly the model in ascending
// order.
func TestFrontierBitsPrimitives(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 130, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := growBits(nil, n)
		b.zero()
		if len(b) != bitWords(n) {
			t.Fatalf("n=%d: %d words, want %d", n, len(b), bitWords(n))
		}
		model := make(map[int32]bool)
		for i := 0; i < n/2+1; i++ {
			v := int32(rng.Intn(n))
			b.set(v)
			model[v] = true
		}
		for v := int32(0); v < int32(n); v++ {
			if b.test(v) != model[v] {
				t.Fatalf("n=%d: test(%d) = %v, model says %v", n, v, b.test(v), model[v])
			}
		}
		members := b.appendMembers(make([]int32, 0, n))
		if len(members) != len(model) {
			t.Fatalf("n=%d: %d members enumerated, model holds %d", n, len(members), len(model))
		}
		for i, v := range members {
			if !model[v] {
				t.Fatalf("n=%d: enumerated %d which is not set", n, v)
			}
			if v < 0 || int(v) >= n {
				t.Fatalf("n=%d: enumerated out-of-range vertex %d", n, v)
			}
			if i > 0 && members[i-1] >= v {
				t.Fatalf("n=%d: members not strictly ascending at %d", n, i)
			}
		}
		// fillFrom round-trips the member list back to the same words.
		c := growBits(nil, n)
		c.fillFrom(members)
		if !reflect.DeepEqual(c, b) {
			t.Fatalf("n=%d: fillFrom(appendMembers) is not the identity", n)
		}
	}
}

// TestFrontierBitsWordBoundaries pins the exact boundary vertices: bits
// 63/64/65 land in the right words, and a tail word covering fewer than
// 64 vertices behaves like any other.
func TestFrontierBitsWordBoundaries(t *testing.T) {
	b := growBits(nil, 130)
	b.zero()
	for _, v := range []int32{0, 63, 64, 65, 127, 128, 129} {
		if b.test(v) {
			t.Fatalf("fresh bitset has %d set", v)
		}
		b.set(v)
		if !b.test(v) {
			t.Fatalf("set(%d) not visible", v)
		}
	}
	if b[0] != 1|1<<63 {
		t.Fatalf("word 0 = %#x, want bits 0 and 63", b[0])
	}
	if b[1] != 1|1<<1|1<<63 {
		t.Fatalf("word 1 = %#x, want bits 64, 65, 127", b[1])
	}
	if b[2] != 1|1<<1 {
		t.Fatalf("word 2 = %#x, want bits 128, 129", b[2])
	}
	want := []int32{0, 63, 64, 65, 127, 128, 129}
	if got := b.appendMembers(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
}

// TestGrowBitsReuse: growth to a larger size reallocates, shrinking
// reuses the array, and contents after growBits are unspecified until
// zero()/fillFrom — the workspace invariant is "zero at point of use".
func TestGrowBitsReuse(t *testing.T) {
	b := growBits(nil, 100)
	b.zero()
	b.set(99)
	same := growBits(b, 64)
	if &same[0] != &b[0] {
		t.Fatal("shrinking reallocated")
	}
	if len(same) != 1 {
		t.Fatalf("shrunk to %d words, want 1", len(same))
	}
	bigger := growBits(same, 1000)
	if len(bigger) != bitWords(1000) {
		t.Fatalf("grew to %d words, want %d", len(bigger), bitWords(1000))
	}
	bigger.set(999)
	bigger.zero()
	if got := bigger.appendMembers(nil); len(got) != 0 {
		t.Fatalf("zero left %v set", got)
	}
}
