package indepset

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// FuzzEnumerateDelta decodes a small Table or Protocol instance, a base
// universe and one extra link, and checks the delta contract against a
// full walk: EnumerateDelta grown from the base family returns the same
// sets and explored count as EnumeratePartialContext over the grown
// universe, or both trip the limit. The seed corpus is in
// testdata/fuzz/FuzzEnumerateDelta.
func FuzzEnumerateDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, universe, link, opts, ok := decodeDeltaInstance(data)
		if !ok {
			return
		}
		ctx := context.Background()
		base := DeltaBase{Universe: dedupSorted(universe)}
		var truncated bool
		var err error
		base.Sets, truncated, base.Explored, err = EnumeratePartialContext(ctx, m, universe, opts)
		if err != nil {
			t.Fatalf("base walk: %v", err)
		}
		if truncated {
			return // a truncated family is never a delta base
		}
		got, gotExplored, derr := EnumerateDelta(ctx, m, base, link, opts)
		grown := append(append([]topology.LinkID(nil), universe...), link)
		want, wantTruncated, wantExplored, err := EnumeratePartialContext(ctx, m, grown, opts)
		if err != nil {
			t.Fatalf("grown walk: %v", err)
		}
		if wantTruncated {
			if !errors.Is(derr, ErrLimit) {
				t.Fatalf("full walk trips the limit, delta returned %v", derr)
			}
			return
		}
		if derr != nil {
			t.Fatalf("delta: %v", derr)
		}
		if !reflect.DeepEqual(keys(got), keys(want)) {
			t.Fatalf("delta family differs:\n got  %v\n want %v", keys(got), keys(want))
		}
		if gotExplored != wantExplored {
			t.Fatalf("delta explored %d, full walk %d", gotExplored, wantExplored)
		}
	})
}

// decodeDeltaInstance reads a fuzz input: byte 0 picks the model (even:
// Table, odd: Protocol on a random topology), byte 1 the size, byte 2
// which link is the extra one, byte 3 the worker count and byte 4 an
// optional small Limit. For a Table the remaining bytes give each
// link's rate count and then the couple-pair conflicts, one bit each;
// for a Protocol model they seed the topology. Missing bytes read as 0.
func decodeDeltaInstance(data []byte) (conflict.Model, []topology.LinkID, topology.LinkID, Options, bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	kind, size, extra, workers, limit := next(), next(), next(), next(), next()
	opts := Options{Workers: 1 + int(workers%4)}
	if limit != 0 {
		opts.Limit = int(limit)
	}
	var m conflict.Model
	var links []topology.LinkID
	if kind%2 == 0 {
		rates := []radio.Rate{54, 36, 18}
		n := 2 + int(size%6)
		tb := conflict.NewTable()
		for i := 0; i < n; i++ {
			tb.SetRates(topology.LinkID(i), rates[:1+int(next()%3)]...)
			links = append(links, topology.LinkID(i))
		}
		var bits byte
		nbits := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for _, ri := range tb.Rates(topology.LinkID(i)) {
					for _, rj := range tb.Rates(topology.LinkID(j)) {
						if nbits == 0 {
							bits, nbits = next(), 8
						}
						if bits&1 != 0 {
							if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
								return nil, nil, 0, opts, false
							}
						}
						bits >>= 1
						nbits--
					}
				}
			}
		}
		m = tb
	} else {
		seed := int64(next()) | int64(next())<<8
		net, err := topology.Random(radio.NewProfile80211a(), geom.Rect{W: 350, H: 350}, 3+int(size%4), seed)
		if err != nil {
			return nil, nil, 0, opts, false
		}
		m = conflict.NewProtocol(net)
		links = cappedLinks(net, 7)
	}
	if len(links) < 2 {
		return nil, nil, 0, opts, false
	}
	k := int(extra) % len(links)
	link := links[k]
	universe := append(links[:k:k], links[k+1:]...)
	return m, universe, link, opts, true
}
