package memo

import "container/list"

// LRU is a byte-charged least-recently-used map: every entry carries
// the size its owner charges for it, and Add evicts from the cold end
// until the total fits the budget again. It is the one in-memory
// eviction loop of the repository: the set-family cache and
// core.Session's warm LPs and verdicts both sit on it, each with its
// own instance and budget.
//
// An LRU is not safe for concurrent use: its owner guards it with its
// own mutex, so eviction happens in the same critical section as the
// lookups and solves that mutex already orders.
type LRU[V any] struct {
	maxBytes  int64
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	bytes     int64
	evictions int64
}

type lruItem[V any] struct {
	key  string
	val  V
	size int64
}

// NewLRU returns an empty LRU holding at most maxBytes of charged size.
func NewLRU[V any](maxBytes int64) *LRU[V] {
	return &LRU[V]{maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value stored under key and marks it most recently
// used.
func (l *LRU[V]) Get(key string) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Add stores val under key charged at size bytes, replacing (and
// re-charging) any value already there, marks it most recently used,
// and evicts least recently used entries until the charged total is
// within the budget. An entry larger than the whole budget is not kept
// (it counts as one eviction, together with any older value under key)
// and displaces nothing else.
func (l *LRU[V]) Add(key string, val V, size int64) {
	el, ok := l.items[key]
	if size > l.maxBytes {
		if ok {
			l.remove(el)
		}
		l.evictions++
		return
	}
	if ok {
		it := el.Value.(*lruItem[V])
		l.bytes += size - it.size
		it.val, it.size = val, size
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&lruItem[V]{key: key, val: val, size: size})
		l.bytes += size
	}
	// The new entry fits on its own, so the loop stops before it.
	for l.bytes > l.maxBytes {
		l.remove(l.ll.Back())
		l.evictions++
	}
}

func (l *LRU[V]) remove(el *list.Element) {
	it := el.Value.(*lruItem[V])
	l.ll.Remove(el)
	delete(l.items, it.key)
	l.bytes -= it.size
}

// Each calls fn on every entry from most to least recently used,
// without touching recency.
func (l *LRU[V]) Each(fn func(key string, val V)) {
	for el := l.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*lruItem[V])
		fn(it.key, it.val)
	}
}

// Len returns the number of entries.
func (l *LRU[V]) Len() int { return l.ll.Len() }

// Bytes returns the charged size of all entries.
func (l *LRU[V]) Bytes() int64 { return l.bytes }

// MaxBytes returns the budget.
func (l *LRU[V]) MaxBytes() int64 { return l.maxBytes }

// Evictions returns how many entries the budget has pushed out.
func (l *LRU[V]) Evictions() int64 { return l.evictions }
