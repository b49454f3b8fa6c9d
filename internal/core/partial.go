package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/vtime"
)

type prStripe struct {
	mu    sync.Mutex
	state map[string]any
	// charged is this stripe's accumulated contention cost (under mu) —
	// the serialized time the stripe's lock would have imposed. Only the
	// virtual-clock overlap model reads it.
	charged time.Duration
}

// prScratch is the reusable working set for stripe-grouping one bin: a
// per-KV stripe index, per-stripe counts/offsets, and a stripe-ordered
// copy of the bin's pairs (a counting sort). Recycling it removes the
// map[int][]KV plus per-stripe slice allocations the fold used to make
// for every bin. It comes from the node's list, one out per worker
// folding a bin, and Put clears its pairs, so no job's keys or values
// stay reachable from the list after the job.
type prScratch struct {
	idx    []int32
	counts []int32
	kvs    []KV
}

func newPRScratchList() *par.List[*prScratch] {
	return par.NewList(
		func() *prScratch { return new(prScratch) },
		func(sc *prScratch) *prScratch { clear(sc.kvs[:cap(sc.kvs)]); return sc },
	)
}

func (sc *prScratch) grow(nkvs, nstripes int) {
	if cap(sc.idx) < nkvs {
		sc.idx = make([]int32, nkvs)
		sc.kvs = make([]KV, nkvs)
	}
	sc.idx = sc.idx[:nkvs]
	sc.kvs = sc.kvs[:nkvs]
	if cap(sc.counts) < nstripes {
		sc.counts = make([]int32, nstripes)
	}
	sc.counts = sc.counts[:nstripes]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
}

// applyPartialBin folds one bin into the partial-reduce state. Updates
// are grouped by lock stripe; each stripe batch is applied while holding
// that stripe's lock, charging the modeled contended-update cost there
// (§5.2). A skewed key space collapses onto few stripes and serializes;
// a wide key space spreads across stripes and overlaps.
func (fs *flowletState) applyPartialBin(bin *Bin) error {
	nstripes := len(fs.stripes)
	if nstripes == 1 {
		return fs.applyStripeBatch(&fs.stripes[0], bin.KVs)
	}
	scratch := fs.jn.rt.prScratch
	sc := scratch.Get()
	sc.grow(len(bin.KVs), nstripes)
	for i, kv := range bin.KVs {
		idx := int32(stripeOf(kv.Key, nstripes))
		sc.idx[i] = idx
		sc.counts[idx]++
	}
	// counts -> start offsets, then scatter pairs into stripe order.
	var start int32
	for s, c := range sc.counts {
		sc.counts[s] = start
		start += c
	}
	for i, kv := range bin.KVs {
		pos := sc.counts[sc.idx[i]]
		sc.kvs[pos] = kv
		sc.counts[sc.idx[i]] = pos + 1
	}
	// After the scatter, counts[s] is the END offset of stripe s.
	var err error
	start = 0
	for s := 0; s < nstripes; s++ {
		end := sc.counts[s]
		if end > start {
			if err = fs.applyStripeBatch(&fs.stripes[s], sc.kvs[start:end]); err != nil {
				break
			}
		}
		start = end
	}
	scratch.Put(sc)
	return err
}

// applyStripeBatch applies one stripe's batch of updates under that
// stripe's lock, charging the modeled contention cost there (§5.2). The
// model is deliberately preserved by the emit-path optimizations: the
// charge is real serialization on the stripe, only the harness's own
// allocations and lookups around it were engineered away.
func (fs *flowletState) applyStripeBatch(st *prStripe, kvs []KV) error {
	cost := fs.jn.rt.cfg.ContentionCost
	if fs.spec.SerializeUpdates {
		// The paper's fix (§5.2): a single writer per variable avoids the
		// cache-line fight; only the base update cost remains.
		cost /= 10
	}
	weight := len(kvs)
	if cost > 0 {
		if coster, ok := fs.spec.Partial.(UpdateCoster); ok {
			weight = 0
			for _, kv := range kvs {
				w := coster.UpdateWeight(kv.Value)
				if w < 1 {
					w = 1
				}
				weight += w
			}
		}
	}
	st.mu.Lock()
	if cost > 0 {
		d := cost * time.Duration(weight)
		fs.contention.Observe(d)
		fs.chargeContention(st, d)
	}
	for _, kv := range kvs {
		old, had := st.state[kv.Key]
		var oldSize int64
		if had {
			oldSize = ValueSize(old) + int64(len(kv.Key))
		}
		next, err := fs.spec.Partial.Update(kv.Key, old, kv.Value)
		if err != nil {
			st.mu.Unlock()
			return err
		}
		st.state[kv.Key] = next
		fs.jn.mem.ForceReserve(ValueSize(next) + int64(len(kv.Key)) - oldSize)
	}
	st.mu.Unlock()
	return nil
}

// chargeContention pays one stripe batch's modeled contention cost d,
// called with st.mu held. Under the real clock the charge sleeps right
// here, so the stripe lock serializes contenders — the mechanism the
// §5.2 model relies on: few hot stripes convoy, many stripes overlap.
//
// A virtual clock cannot reproduce that overlap by summing charges onto
// the node lane (that serializes everything, overcharging wide key
// spaces), so it models it explicitly: the node's contention elapsed is
// max(hottest stripe's total, node total / workers) — the hot stripe
// paces a skewed key space, the worker pool bounds overlap of a wide
// one. Only that advance is charged to the clock's Contention cell; the
// full per-update cost is the partial.contention timer's. Both inputs
// are monotone sums of atomic adds, so the final lane advance is
// scheduling-independent and deterministic.
func (fs *flowletState) chargeContention(st *prStripe, d time.Duration) {
	clk := fs.jn.rt.sub.Clock
	vc, ok := clk.(*vtime.VirtualClock)
	if !ok {
		clk.Charge(fs.jn.rt.id, vtime.Contention, d)
		return
	}
	st.charged += d
	hot := fs.prHot.Load()
	for st.charged > time.Duration(hot) && !fs.prHot.CompareAndSwap(hot, int64(st.charged)) {
		hot = fs.prHot.Load()
	}
	sum := fs.prSum.Add(int64(d))
	workers := int64(fs.jn.rt.cfg.Workers)
	if workers < 1 {
		workers = 1
	}
	target := fs.prHot.Load()
	if s := sum / workers; s > target {
		target = s
	}
	for {
		cur := fs.prAdvanced.Load()
		if target <= cur {
			return
		}
		if fs.prAdvanced.CompareAndSwap(cur, target) {
			vc.Charge(fs.jn.rt.id, vtime.Contention, time.Duration(target-cur))
			return
		}
	}
}

// finishPartial emits every key's folded state (partial reduce "does not
// output until the completion of its upstream flowlets", §2). Stripes are
// processed as fine-grain pool tasks; the finishing goroutine honours the
// flow-control window between stripes.
func (jn *jobNode) finishPartial(fs *flowletState) error {
	ctx := &flowCtx{jn: jn, fs: fs}
	tasks := jn.newFanOut(fs, "partial")
	for i := range fs.stripes {
		st := &fs.stripes[i]
		if len(st.state) == 0 {
			continue
		}
		finish := func() error {
			for k, v := range st.state {
				if jn.failed.Load() {
					return nil
				}
				if err := fs.spec.Partial.Finish(k, v, ctx); err != nil {
					return err
				}
			}
			return nil
		}
		if !tasks.submit(fmt.Sprintf("pstripe:%s:%d:%d", fs.spec.Name, jn.node, i), finish, nil) {
			break
		}
	}
	return tasks.wait()
}
