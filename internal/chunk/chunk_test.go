package chunk

import "testing"

func TestNext(t *testing.T) {
	for _, tc := range []struct{ c, need, want int }{
		{0, 0, Min},             // the first chunk
		{Min, 0, 2 * Min},       // doubles
		{Max / 2, 0, Max},       // up to Max
		{Max, 0, Max},           // and no further
		{0, 3 * Max, 3 * Max},   // a value larger than Max gets its own chunk
		{Min, Min + 1, 2 * Min}, // a need that fits the doubled chunk changes nothing
	} {
		if got := Next(tc.c, tc.need); got != tc.want {
			t.Errorf("Next(%d, %d) = %d, want %d", tc.c, tc.need, got, tc.want)
		}
	}
}
