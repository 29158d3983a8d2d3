package core

// mapBytesPerID is a conservative lower bound on the heap a map[int]struct{}
// spends per inserted id (8-byte key plus control/slack bytes). FirstRepeat
// uses a bitset only while its m/8 bytes stay within that footprint.
const mapBytesPerID = 16

// FirstRepeat returns the smallest i such that ids[i] equals some ids[j] with
// j < i, or -1 when ids are pairwise distinct. It is the shared distinctness
// check of the compile paths (System.GDistinct, the Möbius g checks).
//
// Strictly increasing ids — the paper's contiguous loops — are distinct
// whatever their range, so a first pass answers -1 for them with no
// scratch; at the first non-increase it hands over to the full check from
// index 0. That check runs on an m-bit set when every id lies in [0, m): no
// hashing, and m/8 bytes of scratch. Inputs the bitset cannot hold — an id
// outside [0, m), or m ≫ len(ids) where the bitset would outweigh a hash
// set — take a map path instead, so every input, valid or not, gets the
// same answer.
func FirstRepeat(ids []int, m int) int {
	if len(ids) == 0 {
		return -1
	}
	sorted := true
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return -1
	}
	if m <= 0 || m/8 > mapBytesPerID*len(ids) {
		return firstRepeatMap(ids)
	}
	seen := make([]uint64, (m+63)/64)
	for i, v := range ids {
		if uint(v) >= uint(m) {
			return firstRepeatMap(ids)
		}
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		if seen[w]&bit != 0 {
			return i
		}
		seen[w] |= bit
	}
	return -1
}

// firstRepeatMap is FirstRepeat over a hash set, for ids of any range.
func firstRepeatMap(ids []int) int {
	seen := make(map[int]struct{}, len(ids))
	for i, v := range ids {
		if _, dup := seen[v]; dup {
			return i
		}
		seen[v] = struct{}{}
	}
	return -1
}
