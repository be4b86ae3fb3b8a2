// Package fnv1a is the repository's one FNV-1a. Ring ownership, per-address
// fault plans, backoff jitter and the wild answer addresses are derived from
// its values, so the constants and the xor-then-multiply order are frozen.
package fnv1a

const (
	offset64, offset32 = 14695981039346656037, 2166136261
	prime32            = 16777619
	// Prime64 continues a Sum64 by one step, h = (h ^ v) * Prime64. It is a
	// constant so that the shard and ring hashes stay inlinable in callers.
	Prime64 = 1099511628211
)

// Sum64 is the 64-bit FNV-1a hash of the bytes of s.
func Sum64[T ~string | ~[]byte](s T) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * Prime64
	}
	return h
}

// Sum32 is the 32-bit FNV-1a hash of the bytes of s.
func Sum32[T ~string | ~[]byte](s T) uint32 {
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * prime32
	}
	return h
}
