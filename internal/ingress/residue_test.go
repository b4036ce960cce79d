package ingress

import (
	"strings"
	"testing"
)

// checkChainResidue is the queue and stack batched rounds' residue
// check; each rejection it can issue, in both drain directions.
func TestCheckChainResidue(t *testing.T) {
	v := func(pid int, k uint64) uint64 { return uint64(pid)<<40 | k }
	idx := []uint64{8, 8} // attempts made per producer
	for _, tc := range []struct {
		name    string
		residue []uint64
		ret     []uint64
		fifo    bool
		want    string // substring of the error; empty = accepted
	}{
		{"fifo interleaved", []uint64{v(0, 1), v(1, 0), v(0, 4), v(1, 7)}, []uint64{2, 1}, true, ""},
		{"lifo interleaved", []uint64{v(0, 4), v(1, 7), v(0, 1), v(1, 0)}, []uint64{2, 2}, false, ""},
		{"empty, nothing returned", nil, []uint64{0, 0}, true, ""},
		{"fifo order broken", []uint64{v(0, 4), v(0, 1)}, []uint64{0, 0}, true, "out of order"},
		{"lifo order broken", []uint64{v(0, 1), v(0, 4)}, []uint64{0, 0}, false, "out of order"},
		{"duplicate", []uint64{v(1, 3), v(0, 0), v(1, 3)}, []uint64{0, 0}, true, "appears twice"},
		{"attempt never made", []uint64{v(0, 8)}, []uint64{0, 0}, true, "never published"},
		{"alien producer", []uint64{v(2, 0)}, []uint64{0, 0}, true, "never published"},
		{"returned but lost", []uint64{v(0, 0)}, []uint64{2, 0}, true, "only 1 survived"},
	} {
		err := checkChainResidue(tc.residue, idx, tc.ret, tc.fifo)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
