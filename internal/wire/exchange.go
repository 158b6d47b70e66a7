package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/tensor"
)

// Exchange is one federation plane's codec state: per-(sender, kind)
// broadcast references plus encode/decode counters. A fleet shares one
// Exchange per fabric; the fed round machinery encodes every agent's
// broadcast through it and decodes (validates + folds) every received
// payload against it.
//
// Concurrency: different (sender, kind) streams may encode and decode
// concurrently — the reference map is lock-protected, and counters are
// atomic. Within one kind, the caller must not overlap a new encode with
// in-flight decodes of the previous round; fed's one-round-in-flight
// workspace contract provides exactly that ordering (a round is Joined
// before the next Begin on the same kind).
type Exchange struct {
	opts Options

	mu   sync.RWMutex
	refs map[refID]*refState

	// encMu serializes encoders so the segment and |delta| scratch buffers
	// can be reused across calls.
	encMu      sync.Mutex
	segScratch []byte
	absScratch []float64

	payloadsEncoded atomic.Uint64
	payloadsDecoded atomic.Uint64
	bytesEncoded    atomic.Uint64
	denseBytes      atomic.Uint64
}

// refID keys a broadcast stream: one sender agent on one logical plane
// ("fc/<device>", "drl", ...).
type refID struct {
	sender int
	kind   string
}

// refState is one stream's reference, double-buffered by epoch parity:
// buffer e%2 holds epoch e's broadcast. Two buffers suffice because at most
// one round per kind is in flight — while receivers decode epoch e against
// buffer (e−1)%2, the encoder has already written e's buffer, and the
// encode of e+1 (which reuses (e−1)%2) cannot start until e's round joins.
type refState struct {
	lastEpoch uint32
	have      [2]bool
	epochAt   [2]uint32
	// keys are the monotone bit keys (CodecDelta); vals the reconstructed
	// float values (CodecTopK, doubling as the error-feedback carry — the
	// gap param−val is exactly the unsent mass). Only the configured
	// tier's slices allocate.
	keys [2][][]uint64
	vals [2][][]float64
}

// NewExchange builds an Exchange for one fabric.
func NewExchange(opts Options) *Exchange {
	return &Exchange{opts: opts.withDefaults(), refs: map[refID]*refState{}}
}

// Options returns the exchange's (defaulted) options.
func (x *Exchange) Options() Options { return x.opts }

// Stats is a snapshot of an Exchange's codec counters.
type Stats struct {
	// PayloadsEncoded / PayloadsDecoded count EncodeInto and Validate calls.
	// fed's rounds validate each broadcast once per round for all its
	// receivers, plus each corrupted copy on its own, so under fed
	// PayloadsDecoded counts broadcasts, not receipts. It feeds no result
	// digest.
	PayloadsEncoded uint64
	PayloadsDecoded uint64
	// BytesEncoded is the compressed payload bytes produced; DenseBytes is
	// what the same payloads would have cost in the dense PFP1 format.
	BytesEncoded uint64
	DenseBytes   uint64
}

// Ratio returns DenseBytes/BytesEncoded — the achieved compression ratio
// (1.0 when nothing was encoded).
func (s Stats) Ratio() float64 {
	if s.BytesEncoded == 0 {
		return 1
	}
	return float64(s.DenseBytes) / float64(s.BytesEncoded)
}

// Stats snapshots the counters.
func (x *Exchange) Stats() Stats {
	return Stats{
		PayloadsEncoded: x.payloadsEncoded.Load(),
		PayloadsDecoded: x.payloadsDecoded.Load(),
		BytesEncoded:    x.bytesEncoded.Load(),
		DenseBytes:      x.denseBytes.Load(),
	}
}

// ref returns the stream's state, creating it on first use.
func (x *Exchange) ref(sender int, kind string) *refState {
	id := refID{sender, kind}
	x.mu.RLock()
	rs := x.refs[id]
	x.mu.RUnlock()
	if rs != nil {
		return rs
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if rs = x.refs[id]; rs == nil {
		rs = &refState{}
		x.refs[id] = rs
	}
	return rs
}

// lookup returns the stream's state without creating it.
func (x *Exchange) lookup(sender int, kind string) *refState {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.refs[refID{sender, kind}]
}

// shapesAgree reports whether bufs (keyed per tensor by element count)
// still matches the parameter set — a shape change forces a re-keyframe.
func shapesAgree(sizes []int, params []*tensor.Matrix) bool {
	if len(sizes) != len(params) {
		return false
	}
	for i, p := range params {
		if sizes[i] != p.Size() {
			return false
		}
	}
	return true
}

func keyBufSizes(bufs [][]uint64) []int {
	s := make([]int, len(bufs))
	for i, b := range bufs {
		s[i] = len(b)
	}
	return s
}

func valBufSizes(bufs [][]float64) []int {
	s := make([]int, len(bufs))
	for i, b := range bufs {
		s[i] = len(b)
	}
	return s
}

// ensureKeyBufs sizes a key buffer set like params, reusing capacity.
func ensureKeyBufs(bufs [][]uint64, params []*tensor.Matrix) [][]uint64 {
	if cap(bufs) < len(params) {
		bufs = make([][]uint64, len(params))
	}
	bufs = bufs[:len(params)]
	for i, p := range params {
		n := p.Size()
		if cap(bufs[i]) < n {
			bufs[i] = make([]uint64, n)
		}
		bufs[i] = bufs[i][:n]
	}
	return bufs
}

// ensureValBufs sizes a value buffer set like params, reusing capacity.
func ensureValBufs(bufs [][]float64, params []*tensor.Matrix) [][]float64 {
	if cap(bufs) < len(params) {
		bufs = make([][]float64, len(params))
	}
	bufs = bufs[:len(params)]
	for i, p := range params {
		n := p.Size()
		if cap(bufs[i]) < n {
			bufs[i] = make([]float64, n)
		}
		bufs[i] = bufs[i][:n]
	}
	return bufs
}

// EncodeInto encodes params as sender's next broadcast on kind, appending
// the payload to dst[:0] and returning it. The first broadcast of a stream
// is a dense keyframe; later ones are coded against the previous epoch per
// the exchange's Level. Payloads with NaN/Inf values fall back to dense
// keyframes under TopK (the value-domain codec cannot carry them); the
// lossless Delta tier codes any bit pattern.
func (x *Exchange) EncodeInto(dst []byte, sender int, kind string, params []*tensor.Matrix) ([]byte, error) {
	rs := x.ref(sender, kind)
	x.encMu.Lock()
	defer x.encMu.Unlock()

	prev := rs.lastEpoch % 2
	keyframe := !rs.have[prev]
	epoch := uint32(0)
	if !keyframe {
		epoch = rs.lastEpoch + 1
	}
	cur := epoch % 2

	switch x.opts.Level {
	case Delta:
		if !keyframe && !shapesAgree(keyBufSizes(rs.keys[prev]), params) {
			keyframe, epoch, cur = true, 0, 0
			rs.have[0], rs.have[1] = false, false
		}
	case TopK:
		if !keyframe && !shapesAgree(valBufSizes(rs.vals[prev]), params) {
			keyframe, epoch, cur = true, 0, 0
			rs.have[0], rs.have[1] = false, false
		}
	}

	start := len(dst)
	switch {
	case x.opts.Level == Dense:
		dst = appendHeader(dst, CodecDense, 0, epoch)
		dst = appendDenseBody(dst, params)
	case x.opts.Level == Delta:
		rs.keys[cur] = ensureKeyBufs(rs.keys[cur], params)
		if keyframe {
			dst = appendHeader(dst, CodecDense, 0, epoch)
			dst = appendDenseBody(dst, params)
			for i, p := range params {
				for j, v := range p.Data {
					rs.keys[cur][i][j] = keyOf(math.Float64bits(v))
				}
			}
		} else {
			dst = appendHeader(dst, CodecDelta, flagDelta, epoch)
			dst, x.segScratch = appendDeltaBody(dst, params, rs.keys[prev], rs.keys[cur], x.segScratch)
		}
	default: // TopK
		rs.vals[cur] = ensureValBufs(rs.vals[cur], params)
		if keyframe || paramsHaveNaN(params) {
			// Keyframe, or a diverged payload the sparse codec cannot
			// carry: ship dense and reset the reference to the exact
			// values (which also zeroes the error-feedback gap).
			dst = appendHeader(dst, CodecDense, 0, epoch)
			dst = appendDenseBody(dst, params)
			for i, p := range params {
				copy(rs.vals[cur][i], p.Data)
			}
		} else {
			dst = appendHeader(dst, CodecTopK, flagDelta, epoch)
			dst, x.absScratch = appendTopKBody(dst, params, rs.vals[prev], rs.vals[cur], x.opts.TopKFrac, x.absScratch)
		}
	}
	finishHeader(dst, start)

	rs.lastEpoch = epoch
	rs.have[cur] = true
	rs.epochAt[cur] = epoch

	x.payloadsEncoded.Add(1)
	x.bytesEncoded.Add(uint64(len(dst) - start))
	x.denseBytes.Add(uint64(DenseSize(params)))
	return dst, nil
}

// refFor resolves the reference a flagDelta payload of the given epoch was
// coded against, or an error when the stream's state cannot decode it
// (unknown stream, stale or future epoch — a dropped-keyframe symptom in a
// real deployment; here it means the caller broke the round ordering).
func (rs *refState) refBuf(epoch uint32) (int, error) {
	if rs == nil {
		return 0, fmt.Errorf("wire: no reference state for delta payload")
	}
	if epoch == 0 {
		return 0, fmt.Errorf("wire: delta payload at epoch 0")
	}
	want := epoch - 1
	b := int(want % 2)
	if !rs.have[b] || rs.epochAt[b] != want {
		return 0, fmt.Errorf("wire: reference epoch %d unavailable (stale or out-of-order payload at epoch %d)", want, epoch)
	}
	return b, nil
}

// segSpan is one decodable unit of a delta body: tensor ti's elements
// [lo,hi) with its token bytes.
type segSpan struct {
	ti     int
	lo, hi int
	tokens []byte
}

// deltaSpans flattens a delta body into per-segment spans after validating
// all headers and length tables.
func deltaSpans(body []byte, template []*tensor.Matrix) ([]segSpan, error) {
	nt, n, err := readUvarint(body)
	if err != nil {
		return nil, err
	}
	body = body[n:]
	if int(nt) != len(template) {
		return nil, fmt.Errorf("wire: payload has %d tensors, want %d", nt, len(template))
	}
	var spans []segSpan
	for i, tpl := range template {
		dt, rest, err := splitDeltaTensor(i, body, tpl)
		if err != nil {
			return nil, err
		}
		body = rest
		elems := tpl.Size()
		for s := range dt.offs {
			lo, hi := s*segElems, min((s+1)*segElems, elems)
			spans = append(spans, segSpan{ti: i, lo: lo, hi: hi, tokens: dt.raw[dt.offs[s] : dt.offs[s]+dt.lens[s]]})
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after last tensor", len(body))
	}
	return spans, nil
}

// denseSpans flattens a dense body into per-tensor raw value spans.
func denseSpans(body []byte, template []*tensor.Matrix) ([][]byte, error) {
	nt, n, err := readUvarint(body)
	if err != nil {
		return nil, err
	}
	body = body[n:]
	if int(nt) != len(template) {
		return nil, fmt.Errorf("wire: payload has %d tensors, want %d", nt, len(template))
	}
	vals := make([][]byte, len(template))
	for i, tpl := range template {
		v, rest, err := splitDenseTensor(i, body, tpl)
		if err != nil {
			return nil, err
		}
		vals[i], body = v, rest
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after last tensor", len(body))
	}
	return vals, nil
}

// topKSpans parses a top-k body into per-tensor corrections.
func topKSpans(body []byte, template []*tensor.Matrix) ([]topKTensor, error) {
	nt, n, err := readUvarint(body)
	if err != nil {
		return nil, err
	}
	body = body[n:]
	if int(nt) != len(template) {
		return nil, fmt.Errorf("wire: payload has %d tensors, want %d", nt, len(template))
	}
	tks := make([]topKTensor, len(template))
	for i, tpl := range template {
		tk, rest, err := splitTopKTensor(i, body, tpl)
		if err != nil {
			return nil, err
		}
		tks[i], body = tk, rest
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after last tensor", len(body))
	}
	return tks, nil
}

// errOnce collects the first error from parallel workers.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// Validate checks a payload end to end — envelope, checksum, structure
// against the template shapes, reference availability, and value health —
// without materializing the parameters. It returns ErrDiverged when the
// decoded values contain NaN/Inf (the sender's model diverged; the payload
// itself is intact) and a descriptive error for any form of corruption.
// A nil return guarantees FoldInto will succeed on the same payload.
func (x *Exchange) Validate(sender int, kind string, template []*tensor.Matrix, payload []byte) error {
	x.payloadsDecoded.Add(1)
	h, err := parseHeader(payload)
	if err != nil {
		return err
	}
	switch h.codec {
	case CodecDense:
		vals, err := denseSpans(h.body, template)
		if err != nil {
			return err
		}
		for _, raw := range vals {
			for o := 0; o+8 <= len(raw); o += 8 {
				if isNaNInfBits(binary.LittleEndian.Uint64(raw[o:])) {
					return ErrDiverged
				}
			}
		}
		return nil

	case CodecDelta:
		rs := x.lookup(sender, kind)
		b, err := rs.refBuf(h.epoch)
		if err != nil {
			return err
		}
		if !shapesAgree(keyBufSizes(rs.keys[b]), template) {
			return fmt.Errorf("wire: reference shapes do not match template")
		}
		spans, err := deltaSpans(h.body, template)
		if err != nil {
			return err
		}
		var first errOnce
		var diverged atomic.Bool
		sched.Default().ParallelFor(len(spans), 1, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				sp := spans[s]
				ref := rs.keys[b][sp.ti][sp.lo:sp.hi]
				nan := false
				err := walkDeltaSeg(sp.tokens, ref, sp.hi-sp.lo, func(j int, key uint64) {
					if isNaNInfBits(bitsOf(key)) {
						nan = true
					}
				})
				first.set(err)
				if nan {
					diverged.Store(true)
				}
			}
		})
		if first.err != nil {
			return first.err
		}
		if diverged.Load() {
			return ErrDiverged
		}
		return nil

	default: // CodecTopK
		rs := x.lookup(sender, kind)
		b, err := rs.refBuf(h.epoch)
		if err != nil {
			return err
		}
		if !shapesAgree(valBufSizes(rs.vals[b]), template) {
			return fmt.Errorf("wire: reference shapes do not match template")
		}
		tks, err := topKSpans(h.body, template)
		if err != nil {
			return err
		}
		for ti, tk := range tks {
			ref := rs.vals[b][ti]
			for e, idx := range tk.idx {
				v := ref[idx] + tk.scale*float64(tk.q[e])
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return ErrDiverged
				}
			}
		}
		return nil
	}
}

// FoldInto accumulates weight × the payload's decoded values into staged,
// segment-parallel: staged[i].Data[j] += v·weight, element for element the
// same arithmetic the dense aggregation path applies, so a fixed fold order
// reproduces its bits exactly. comp, when non-nil (shaped like staged),
// enables Kahan-compensated accumulation instead — more accurate for large
// fleets, but not bit-identical to the plain fold.
//
// The caller must Validate the payload first; FoldInto repeats only the
// structural checks it needs to walk safely.
func (x *Exchange) FoldInto(staged []*tensor.Matrix, comp [][]float64, sender int, kind string, payload []byte, weight float64) error {
	h, err := parseHeader(payload)
	if err != nil {
		return err
	}
	switch h.codec {
	case CodecDense:
		vals, err := denseSpans(h.body, staged)
		if err != nil {
			return err
		}
		for i, raw := range vals {
			dst := staged[i].Data
			var cmp []float64
			if comp != nil {
				cmp = comp[i]
			}
			sched.Default().ParallelFor(len(dst), segElems, func(lo, hi int) {
				foldDenseRange(dst, cmp, raw, lo, hi, weight)
			})
		}
		return nil

	case CodecDelta:
		rs := x.lookup(sender, kind)
		b, err := rs.refBuf(h.epoch)
		if err != nil {
			return err
		}
		if !shapesAgree(keyBufSizes(rs.keys[b]), staged) {
			return fmt.Errorf("wire: reference shapes do not match template")
		}
		spans, err := deltaSpans(h.body, staged)
		if err != nil {
			return err
		}
		var first errOnce
		sched.Default().ParallelFor(len(spans), 1, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				sp := spans[s]
				ref := rs.keys[b][sp.ti][sp.lo:sp.hi]
				dst := staged[sp.ti].Data[sp.lo:sp.hi]
				var cmp []float64
				if comp != nil {
					cmp = comp[sp.ti][sp.lo:sp.hi]
				}
				first.set(foldDeltaSeg(sp.tokens, ref, dst, cmp, weight))
			}
		})
		return first.err

	default: // CodecTopK
		rs := x.lookup(sender, kind)
		b, err := rs.refBuf(h.epoch)
		if err != nil {
			return err
		}
		if !shapesAgree(valBufSizes(rs.vals[b]), staged) {
			return fmt.Errorf("wire: reference shapes do not match template")
		}
		tks, err := topKSpans(h.body, staged)
		if err != nil {
			return err
		}
		for ti, tk := range tks {
			ref := rs.vals[b][ti]
			dst := staged[ti].Data
			var cmp []float64
			if comp != nil {
				cmp = comp[ti]
			}
			sched.Default().ParallelFor(len(dst), segElems, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					foldOne(dst, cmp, j, ref[j], weight)
				}
			})
			for e, idx := range tk.idx {
				foldOne(dst, cmp, idx, tk.scale*float64(tk.q[e]), weight)
			}
		}
		return nil
	}
}

// foldOne applies dst[j] += v·weight, Kahan-compensated when cmp != nil.
func foldOne(dst, cmp []float64, j int, v, weight float64) {
	if cmp == nil {
		dst[j] += v * weight
		return
	}
	y := v*weight - cmp[j]
	t := dst[j] + y
	cmp[j] = (t - dst[j]) - y
	dst[j] = t
}

// foldDenseRange folds raw little-endian float64s [lo,hi) into dst.
func foldDenseRange(dst, cmp []float64, raw []byte, lo, hi int, weight float64) {
	for j := lo; j < hi; j++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		foldOne(dst, cmp, j, v, weight)
	}
}

// foldDeltaSeg decodes one segment's keys and folds the values into dst
// (both sliced to the segment).
func foldDeltaSeg(tokens []byte, ref []uint64, dst, cmp []float64, weight float64) error {
	return walkDeltaSeg(tokens, ref, len(dst), func(j int, key uint64) {
		foldOne(dst, cmp, j, math.Float64frombits(bitsOf(key)), weight)
	})
}

// FoldLocal folds an in-memory parameter set (an aggregator's own snapshot,
// which never crosses the wire) with the same arithmetic FoldInto applies
// to received payloads, so the streaming mean's fold order is uniform.
func FoldLocal(staged []*tensor.Matrix, comp [][]float64, src []*tensor.Matrix, weight float64) {
	for i, p := range src {
		dst := staged[i].Data
		var cmp []float64
		if comp != nil {
			cmp = comp[i]
		}
		sched.Default().ParallelFor(len(dst), segElems, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				foldOne(dst, cmp, j, p.Data[j], weight)
			}
		})
	}
}

// DecodeInto fully decodes a payload into dst, whose shapes are the
// template. Bit patterns are reproduced exactly for dense and delta
// payloads (including NaN payloads — DecodeInto does not reject them; that
// is Validate's job). Used by tests and by star-topology paths that need
// materialized parameters rather than a streaming fold.
func (x *Exchange) DecodeInto(dst []*tensor.Matrix, sender int, kind string, payload []byte) error {
	h, err := parseHeader(payload)
	if err != nil {
		return err
	}
	switch h.codec {
	case CodecDense:
		vals, err := denseSpans(h.body, dst)
		if err != nil {
			return err
		}
		for i, raw := range vals {
			d := dst[i].Data
			for j := range d {
				d[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		}
		return nil

	case CodecDelta:
		rs := x.lookup(sender, kind)
		b, err := rs.refBuf(h.epoch)
		if err != nil {
			return err
		}
		if !shapesAgree(keyBufSizes(rs.keys[b]), dst) {
			return fmt.Errorf("wire: reference shapes do not match template")
		}
		spans, err := deltaSpans(h.body, dst)
		if err != nil {
			return err
		}
		var first errOnce
		sched.Default().ParallelFor(len(spans), 1, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				sp := spans[s]
				ref := rs.keys[b][sp.ti][sp.lo:sp.hi]
				out := dst[sp.ti].Data[sp.lo:sp.hi]
				first.set(walkDeltaSeg(sp.tokens, ref, len(out), func(j int, key uint64) {
					out[j] = math.Float64frombits(bitsOf(key))
				}))
			}
		})
		return first.err

	default: // CodecTopK
		rs := x.lookup(sender, kind)
		b, err := rs.refBuf(h.epoch)
		if err != nil {
			return err
		}
		if !shapesAgree(valBufSizes(rs.vals[b]), dst) {
			return fmt.Errorf("wire: reference shapes do not match template")
		}
		tks, err := topKSpans(h.body, dst)
		if err != nil {
			return err
		}
		for ti, tk := range tks {
			copy(dst[ti].Data, rs.vals[b][ti])
			for e, idx := range tk.idx {
				dst[ti].Data[idx] += tk.scale * float64(tk.q[e])
			}
		}
		return nil
	}
}
