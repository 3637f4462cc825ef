package server

import (
	"fmt"
	"testing"

	"ntga/internal/engines"
)

func TestFingerprintDistinguishesBoundaries(t *testing.T) {
	if fingerprint("ab", "c") == fingerprint("a", "bc") {
		t.Error("fingerprint ignores part boundaries")
	}
	if fingerprint("x") != fingerprint("x") {
		t.Error("fingerprint unstable")
	}
	if fingerprint() == fingerprint("") {
		t.Error("zero parts collides with one empty part")
	}
}

func TestPlanCacheStats(t *testing.T) {
	c := newPlanCache()
	if _, ok := c.get("k"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("k", planEntry{Choice: engines.Choice{Engine: "ntga-lazy", Order: []int{1, 0}}})
	e, ok := c.get("k")
	if !ok || e.Engine != "ntga-lazy" || len(e.Order) != 2 {
		t.Fatalf("get = %+v, %v", e, ok)
	}
	hits, misses, size := c.stats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Errorf("stats = (%d, %d, %d), want (1, 1, 1)", hits, misses, size)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(3)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), resultEntry{count: int64(i)}, cacheIdentity{})
	}
	// Touch k0 so k1 is now the cold end, then overflow.
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.put("k3", resultEntry{count: 3}, cacheIdentity{})
	if _, ok := c.get("k1"); ok {
		t.Error("k1 survived eviction, want LRU out")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if _, _, size := c.stats(); size != 3 {
		t.Errorf("size = %d, want 3", size)
	}
}

func TestResultCachePutExistingRefreshes(t *testing.T) {
	c := newResultCache(2)
	c.put("a", resultEntry{count: 1}, cacheIdentity{})
	c.put("b", resultEntry{count: 2}, cacheIdentity{})
	c.put("a", resultEntry{count: 10}, cacheIdentity{}) // update + move to front
	c.put("c", resultEntry{count: 3}, cacheIdentity{})  // evicts b, not a
	if e, ok := c.get("a"); !ok || e.count != 10 {
		t.Errorf("a = (%+v, %v), want updated entry kept", e, ok)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived, want evicted as LRU")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	if c := newResultCache(0); c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	var c *resultCache // nil receiver must be safe
	if _, ok := c.get("k"); ok {
		t.Error("nil cache hit")
	}
	c.put("k", resultEntry{}, cacheIdentity{})
	if h, m, s := c.stats(); h != 0 || m != 0 || s != 0 {
		t.Errorf("nil cache stats = (%d, %d, %d)", h, m, s)
	}
}
