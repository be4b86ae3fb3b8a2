package fnv1a

import (
	"hash/fnv"
	"testing"
)

// TestMatchesStdlib pins the values: the hand-written loops this package
// replaced were byte-for-byte hash/fnv's 1a variants.
func TestMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "example.com.", "\x00\xff\x80 a longer input with every kind of byte \x01"} {
		h64 := fnv.New64a()
		h64.Write([]byte(s))
		if got, want := Sum64(s), h64.Sum64(); got != want {
			t.Errorf("Sum64(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
		if got, want := Sum64([]byte(s)), h64.Sum64(); got != want {
			t.Errorf("Sum64([]byte(%q)) = %#x, hash/fnv says %#x", s, got, want)
		}
		h64.Write([]byte{0xcd})
		if got, want := (Sum64(s)^0xcd)*Prime64, h64.Sum64(); got != want {
			t.Errorf("(Sum64(%q) ^ 0xcd) * Prime64 = %#x, hash/fnv says %#x", s, got, want)
		}
		h32 := fnv.New32a()
		h32.Write([]byte(s))
		if got, want := Sum32(s), h32.Sum32(); got != want {
			t.Errorf("Sum32(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
	}
}
