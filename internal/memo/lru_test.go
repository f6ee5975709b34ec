package memo

import (
	"reflect"
	"testing"
)

// TestLRUChargesAndEvicts pins the eviction loop both the family cache
// and core.Session rely on: the charged total never exceeds the budget
// after an Add, Get refreshes recency, a re-Add replaces the value and
// re-charges it, and an entry larger than the whole budget is dropped
// without displacing anything else.
func TestLRUChargesAndEvicts(t *testing.T) {
	l := NewLRU[int](100)
	keys := func() []string {
		var out []string
		l.Each(func(k string, _ int) { out = append(out, k) })
		return out
	}
	l.Add("a", 1, 40)
	l.Add("b", 2, 40)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	l.Add("c", 3, 40) // evicts b, the least recently used
	if got := keys(); !reflect.DeepEqual(got, []string{"c", "a"}) || l.Bytes() != 80 || l.Evictions() != 1 {
		t.Fatalf("after c: keys %v bytes %d evictions %d", got, l.Bytes(), l.Evictions())
	}
	l.Add("a", 10, 60) // replace and re-charge: 60 + 40 fits
	if v, _ := l.Get("a"); v != 10 || l.Bytes() != 100 || l.Len() != 2 {
		t.Fatalf("after re-Add: a=%d bytes %d len %d", v, l.Bytes(), l.Len())
	}
	l.Add("huge", 4, 101)
	if _, ok := l.Get("huge"); ok || l.Bytes() != 100 || l.Len() != 2 || l.Evictions() != 2 {
		t.Fatalf("after oversize: len %d bytes %d evictions %d", l.Len(), l.Bytes(), l.Evictions())
	}
	l.Add("a", 11, 101) // an oversize re-Add drops the old value too
	if _, ok := l.Get("a"); ok || l.Bytes() != 40 || l.Len() != 1 || l.Evictions() != 3 {
		t.Fatalf("after oversize re-Add: len %d bytes %d evictions %d", l.Len(), l.Bytes(), l.Evictions())
	}
	if l.MaxBytes() != 100 {
		t.Fatalf("MaxBytes %d", l.MaxBytes())
	}
}
