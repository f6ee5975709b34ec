package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// verifier checks recorded answers against the uncached reference,
// outside every timing. References are memoized per (state, pair):
// the question, not the answer, so each distinct answer is still
// compared.
type verifier struct {
	dep  *deployment
	mu   sync.Mutex
	refs map[refKey]outcome //guards: mu
}

type refKey struct {
	sig      string
	src, dst int
}

func newVerifier(dep *deployment) *verifier {
	return &verifier{dep: dep, refs: map[refKey]outcome{}}
}

func (v *verifier) ref(ctx context.Context, bg *bgState, src, dst int) (outcome, error) {
	k := refKey{bg.sig, src, dst}
	v.mu.Lock()
	r, ok := v.refs[k]
	v.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := reference(ctx, v.dep, bg, src, dst)
	if err != nil {
		return outcome{}, err
	}
	v.mu.Lock()
	v.refs[k] = r
	v.mu.Unlock()
	return r, nil
}

// check verifies every recorded answer and returns how many answers
// (counting repeats) were wrong. The first few mismatches are reported
// on stderr.
func (v *verifier) check(ctx context.Context, store answerStore, workers int, stderr io.Writer) int64 {
	keys := make([]answerKey, 0, len(store))
	for k := range store {
		keys = append(keys, k)
	}
	// Deterministic order keeps the first reported mismatch stable.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.bg.sig != b.bg.sig {
			return a.bg.sig < b.bg.sig
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.demand < b.demand
	})
	var (
		mu       sync.Mutex
		wrong    int64
		reported int
		wg       sync.WaitGroup
	)
	next := make(chan answerKey)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				bodies := make([]string, 0, len(store[k]))
				for b := range store[k] {
					bodies = append(bodies, b)
				}
				sort.Strings(bodies)
				for _, b := range bodies {
					if err := v.checkOne(ctx, k, []byte(b)); err != nil {
						mu.Lock()
						wrong += store[k][b]
						if reported < 5 {
							reported++
							fmt.Fprintf(stderr, "abwperf: wrong answer to %s %d->%d: %v\n", kindName(k.kind), k.src, k.dst, err)
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return wrong
}

func kindName(k opKind) string {
	if k == opAdmit {
		return "admit"
	}
	return "query"
}

// checkOne compares one answer body with the reference: same path
// nodes, same feasibility, same admit decision, bandwidth within bwTol.
func (v *verifier) checkOne(ctx context.Context, k answerKey, body []byte) error {
	ref, err := v.ref(ctx, k.bg, k.src, k.dst)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	got, err := decodeOutcome(k.kind, body)
	if err != nil {
		return err
	}
	want := ref
	if k.kind == opAdmit {
		want = outcome{feasible: true, bandwidth: ref.bandwidth, admitted: ref.admits(k.demand)}
		if want.admitted {
			want.nodes = ref.nodes
		}
		got.id = 0 // ids are the daemon's to assign
	}
	return got.diff(want)
}
