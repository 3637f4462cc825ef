package hash64

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// The four legacy fnv64a helpers this package replaced, copied verbatim.
// The pin tests prove the consolidated form reproduces every historical
// draw byte-exact, so seeded chaos schedules and dataset versions recorded
// before the consolidation stay valid after it.

func legacyChaosDraw(job, kind string, task, attempt int, phase string, seq int, which string, seed int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%s|%d|%s|%d", job, kind, task, attempt, phase, seq, which, seed)
	return float64(h.Sum64()%100000) / 100000
}

func legacyInjectDraw(job, kind string, task, attempt int, seed int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d", job, kind, task, attempt, seed)
	return float64(h.Sum64() % 10000)
}

func legacyNetDraw(from, to string, seq int, which string, seed int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%s|%d", from, to, seq, which, seed)
	return float64(h.Sum64()%100000) / 100000
}

func legacyVersion(triples [][3]uint32) string {
	h := fnv.New64a()
	for _, t := range triples {
		fmt.Fprintf(h, "%d,%d,%d;", t[0], t[1], t[2])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestPinChaosDraw(t *testing.T) {
	for _, job := range []string{"ntga-group", "ntga-join0", "x"} {
		for task := 0; task < 7; task++ {
			for seq := 0; seq < 5; seq++ {
				for _, which := range []string{"straggle", "fail", "node"} {
					want := legacyChaosDraw(job, "map", task, task%3, "write", seq, which, 42)
					got := float64(Mod(100000, "%s|%s|%d|%d|%s|%d|%s|%d",
						job, "map", task, task%3, "write", seq, which, int64(42))) / 100000
					if got != want {
						t.Fatalf("chaos draw drifted: job=%s task=%d seq=%d which=%s got %v want %v",
							job, task, seq, which, got, want)
					}
				}
			}
		}
	}
}

func TestPinInjectDraw(t *testing.T) {
	for _, kind := range []string{"map", "reduce", "maponly"} {
		for task := 0; task < 9; task++ {
			for attempt := 0; attempt < 4; attempt++ {
				want := legacyInjectDraw("job-a", kind, task, attempt, 7)
				got := float64(Mod(10000, "%s|%s|%d|%d|%d", "job-a", kind, task, attempt, int64(7)))
				if got != want {
					t.Fatalf("inject draw drifted: kind=%s task=%d attempt=%d got %v want %v",
						kind, task, attempt, got, want)
				}
			}
		}
	}
}

func TestPinNetDraw(t *testing.T) {
	for _, e := range [][2]string{{"worker1", "master"}, {"master", "worker2"}, {"a", "b"}} {
		for seq := 0; seq < 11; seq++ {
			for _, which := range []string{"drop", "delay", "sever"} {
				want := legacyNetDraw(e[0], e[1], seq, which, 99)
				got := float64(Mod(100000, "%s|%s|%d|%s|%d", e[0], e[1], seq, which, int64(99))) / 100000
				if got != want {
					t.Fatalf("net draw drifted: edge=%v seq=%d which=%s got %v want %v", e, seq, which, got, want)
				}
			}
		}
	}
}

func TestPinVersionHash(t *testing.T) {
	triples := [][3]uint32{{1, 2, 3}, {4, 5, 6}, {1, 2, 7}, {900, 12, 77}, {0, 0, 0}, {1<<32 - 1, 1 << 31, 10}}
	h := New()
	for _, tr := range triples {
		h.AddTriple(uint64(tr[0]), uint64(tr[1]), uint64(tr[2]))
	}
	if got, want := h.Hex(), legacyVersion(triples); got != want {
		t.Fatalf("version hash drifted: got %s want %s", got, want)
	}
	if New().Hex() != legacyVersion(nil) {
		t.Fatalf("empty version hash drifted")
	}
}

func TestBucket(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for v := uint64(0); v < 4096; v++ {
		b := Bucket(v, n)
		if b < 0 || b >= n {
			t.Fatalf("Bucket(%d, %d) = %d out of range", v, n, b)
		}
		if b != Bucket(v, n) {
			t.Fatalf("Bucket(%d, %d) not deterministic", v, n)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty over 4096 consecutive IDs — placement badly skewed", b)
		}
	}
	if Bucket(123, 1) != 0 || Bucket(123, 0) != 0 {
		t.Fatalf("degenerate bucket counts must map to bucket 0")
	}
}

// TestResumeContinuesStream: Resume(h.Sum64()) extends the same fnv64a
// stream — the property the versioned dataset manifest depends on.
func TestResumeContinuesStream(t *testing.T) {
	whole := New()
	whole.AddTriple(1, 2, 3)
	whole.AddTriple(4, 5, 6)

	first := New()
	first.AddTriple(1, 2, 3)
	rest := Resume(first.Sum64())
	rest.AddTriple(4, 5, 6)

	if rest.Sum64() != whole.Sum64() {
		t.Fatalf("resumed hash %016x != whole-stream hash %016x", rest.Sum64(), whole.Sum64())
	}
	if rest.Hex() != whole.Hex() {
		t.Fatalf("Hex mismatch: %s vs %s", rest.Hex(), whole.Hex())
	}
}

// legacyBucket is Bucket as it was written over hash/fnv's hasher: the
// layout's placement, which manifests and bucket files on disk record.
func legacyBucket(v uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum64() % uint64(n))
}

// TestPinBucket: the inlined FNV-1a places every key where the hash/fnv
// form did, for small, dense, sparse and extreme keys and the bucket counts
// layouts use.
func TestPinBucket(t *testing.T) {
	keys := []uint64{0, 1, 255, 256, 1<<32 - 1, 1 << 32, 1<<64 - 1, 0x0123456789abcdef}
	for v := uint64(0); v < 5000; v++ {
		keys = append(keys, v, v*2654435761, v<<40|v)
	}
	for _, n := range []int{1, 2, 3, 8, 64} {
		for _, v := range keys {
			if got, want := Bucket(v, n), legacyBucket(v, n); got != want {
				t.Fatalf("Bucket(%#x, %d) = %d, hash/fnv placement %d", v, n, got, want)
			}
		}
	}
}

func BenchmarkBucket(b *testing.B) {
	s := 0
	for i := 0; i < b.N; i++ {
		s += Bucket(uint64(i), 8)
	}
	_ = s
}
