package service

import "container/list"

// lru is a bounded least-recently-used map: the one copy behind the
// result cache, the interval-trace cache and the built-image cache. It is
// not safe for concurrent use — each owner guards it with the mutex that
// also guards whatever else must change in the same step.
type lru[V any] struct {
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: max(capacity, 1), order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value under key and marks it most recently used.
func (l *lru[V]) get(key string) (v V, ok bool) {
	el, ok := l.items[key]
	if !ok {
		return v, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores v under key as the most recently used entry, evicting the
// least recently used ones beyond the capacity.
func (l *lru[V]) put(key string, v V) {
	if el, ok := l.items[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		l.order.MoveToFront(el)
		return
	}
	l.items[key] = l.order.PushFront(&lruEntry[V]{key: key, val: v})
	for l.order.Len() > l.cap {
		el := l.order.Back()
		l.order.Remove(el)
		delete(l.items, el.Value.(*lruEntry[V]).key)
	}
}
