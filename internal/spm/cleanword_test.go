package spm

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/memtech"
)

// The clean-word fast path (DESIGN.md §11) lets ReadChecked, ScrubWords
// and Audit skip the codec for words whose dirty bit is clear. The tests
// below drive a Region and refRegion — a slow reference that decodes
// every word, as the region did before the fast path — through the same
// operation sequence and require identical payloads, outcomes, scrub
// results, audit tallies, stored words and stats, with the bitmap
// invariant asserted after every operation.

// oracleKinds are the region kinds the oracle covers.
var oracleKinds = []RegionKind{RegionSTT, RegionECC, RegionParity, RegionPlain, RegionDMR}

// oracleWords is the oracle region size: more than two bitmap words,
// the last one partial.
const oracleWords = 130

// refRegion is the decode-everything reference model of a Region.
type refRegion struct {
	bank      memtech.Bank
	codec     ecc.Codec
	words     []ecc.Bits
	golden    []uint32
	writes    []uint64
	stuckMask []ecc.Bits
	stuckVal  []ecc.Bits
	retired   []bool
	stats     RegionStats
	wear      *wearModel
}

func newRefRegion(tb testing.TB, kind RegionKind, n int) *refRegion {
	tb.Helper()
	bank, err := memtech.EstimateBank(kind.Technology(), kind.Protection(), n*memtech.WordBytes)
	if err != nil {
		tb.Fatal(err)
	}
	codec, err := kind.newCodec()
	if err != nil {
		tb.Fatal(err)
	}
	ref := &refRegion{
		bank:      bank,
		codec:     codec,
		words:     make([]ecc.Bits, n),
		golden:    make([]uint32, n),
		writes:    make([]uint64, n),
		stuckMask: make([]ecc.Bits, n),
		stuckVal:  make([]ecc.Bits, n),
		retired:   make([]bool, n),
	}
	for i := range ref.words {
		ref.words[i] = codec.Encode(ecc.BitsFromUint64(0))
	}
	return ref
}

func (f *refRegion) store(w int, code ecc.Bits) {
	f.words[w] = faults.ApplyStuckAt(code, f.stuckMask[w], f.stuckVal[w])
}

func (f *refRegion) setStuck(w, bit int, val bool) {
	f.stuckMask[w] = f.stuckMask[w].Set(bit, true)
	f.stuckVal[w] = f.stuckVal[w].Set(bit, val)
	f.store(w, f.words[w])
}

func (f *refRegion) write(w0 int, values []uint32) (memtech.Cycles, WriteOutcome) {
	var oc WriteOutcome
	for i, v := range values {
		w := w0 + i
		enc := f.codec.Encode(ecc.BitsFromUint64(uint64(v)))
		if f.wear != nil && f.wear.cfg.StuckAtProb > 0 && f.wear.rng.Float64() < f.wear.cfg.StuckAtProb {
			bit := f.wear.rng.Intn(f.codec.CodeBits())
			f.setStuck(w, bit, f.words[w].Get(bit))
		}
		stored := enc
		if f.wear != nil && f.wear.cfg.WriteFailProb > 0 {
			failProb := f.wear.writeFailProb()
			retries := 0
			for f.wear.rng.Float64() < failProb {
				if retries >= f.wear.cfg.MaxWriteRetries {
					stored = stored.Flip(f.wear.rng.Intn(f.codec.CodeBits()))
					break
				}
				retries++
			}
			oc.Retries += retries
		}
		f.store(w, stored)
		f.golden[w] = v
		f.writes[w]++
		if f.words[w] != enc {
			oc.Failed = append(oc.Failed, w)
		}
	}
	n := len(values)
	f.stats.WriteAccesses++
	f.stats.WordsWritten += uint64(n)
	e := f.bank.AccessEnergy(n*memtech.WordBytes, true)
	cycles := f.bank.AccessLatency(n*memtech.WordBytes, true)
	if oc.Retries > 0 {
		cycles += f.bank.WriteLatency * memtech.Cycles(oc.Retries)
		e += f.bank.AccessEnergy(memtech.WordBytes, true) * memtech.Picojoules(oc.Retries)
	}
	f.stats.Energy += e
	return cycles, oc
}

func (f *refRegion) read(w0, n int) ([]uint32, memtech.Cycles, ReadOutcome) {
	var oc ReadOutcome
	out := make([]uint32, n)
	for i := range out {
		w := w0 + i
		data, status := f.codec.Decode(f.words[w])
		switch status {
		case ecc.Corrected:
			f.stats.CorrectedErrors++
			oc.Corrected++
			f.store(w, f.codec.Encode(data))
		case ecc.Detected:
			f.stats.DetectedErrors++
			oc.Detected = append(oc.Detected, w)
		}
		out[i] = uint32(data.Uint64())
		if status != ecc.Detected && out[i] != f.golden[w] {
			f.stats.SilentReads++
		}
	}
	f.stats.ReadAccesses++
	f.stats.WordsRead += uint64(n)
	f.stats.Energy += f.bank.AccessEnergy(n*memtech.WordBytes, false)
	return out, f.bank.AccessLatency(n*memtech.WordBytes, false), oc
}

func (f *refRegion) scrub() (repaired int, detected []int, cycles memtech.Cycles) {
	n := len(f.words)
	cycles = f.bank.AccessLatency(n*memtech.WordBytes, false)
	f.stats.ReadAccesses++
	f.stats.WordsRead += uint64(n)
	f.stats.Energy += f.bank.AccessEnergy(n*memtech.WordBytes, false)
	for i, w := range f.words {
		if f.retired[i] {
			continue
		}
		data, status := f.codec.Decode(w)
		switch status {
		case ecc.Corrected:
			f.store(i, f.codec.Encode(data))
			f.writes[i]++
			repaired++
			f.stats.CorrectedErrors++
			cycles += f.bank.AccessLatency(memtech.WordBytes, true)
			f.stats.Energy += f.bank.AccessEnergy(memtech.WordBytes, true)
			f.stats.WordsWritten++
		case ecc.Detected:
			detected = append(detected, i)
			f.stats.DetectedErrors++
		}
	}
	return repaired, detected, cycles
}

func (f *refRegion) audit() faults.Tally {
	var t faults.Tally
	for i, w := range f.words {
		if f.retired[i] {
			continue
		}
		data, status := f.codec.Decode(w)
		intact := uint32(data.Uint64()) == f.golden[i]
		switch {
		case status == ecc.Detected:
			t.Add(faults.DUE)
		case !intact:
			t.Add(faults.SDC)
		case status == ecc.Corrected:
			t.Add(faults.DRE)
		default:
			t.Add(faults.Benign)
		}
	}
	return t
}

// opStream hands out operation bytes; an exhausted stream reads as 0.
type opStream struct {
	b []byte
	i int
}

func (s *opStream) more() bool { return s.i < len(s.b) }

func (s *opStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

func (s *opStream) word(n int) int { return (int(s.next())<<8 | int(s.next())) % n }

func (s *opStream) u32() uint32 {
	return uint32(s.next()) | uint32(s.next())<<8 | uint32(s.next())<<16 | uint32(s.next())<<24
}

// strikeDelta picks a strike pattern: one bit (correct-on-read under
// SEC-DED), two or three adjacent bits (detection, miscorrection) or an
// arbitrary in-code mask. Bits past the codeword are dropped.
func (s *opStream) strikeDelta(codeBits int) uint64 {
	shape, pos := s.next()%4, int(s.next())%codeBits
	var d uint64
	switch shape {
	case 0:
		d = 1 << pos
	case 1:
		d = 3 << pos
	case 2:
		d = 7 << pos
	default:
		d = uint64(s.u32())<<32 | uint64(s.u32())
	}
	if codeBits < 64 {
		d &= 1<<codeBits - 1
	}
	return d
}

// checkCleanInvariant asserts the fast path's invariant: every clean
// word holds the encoding of its golden payload, no bit is set past the
// last word, and nDirty is the bitmap's population count.
func checkCleanInvariant(tb testing.TB, r *Region, step int) {
	tb.Helper()
	pop := 0
	for _, x := range r.dirty {
		pop += bits.OnesCount64(x)
	}
	if pop != r.nDirty {
		tb.Fatalf("step %d: nDirty = %d, bitmap popcount = %d", step, r.nDirty, pop)
	}
	if tail := len(r.words) % 64; tail != 0 && r.dirty[len(r.dirty)-1]>>tail != 0 {
		tb.Fatalf("step %d: dirty bits set past the last word", step)
	}
	for w := range r.words {
		if !r.isDirty(w) && r.words[w] != r.codec.Encode(ecc.BitsFromUint64(uint64(r.golden[w]))) {
			tb.Fatalf("step %d: clean word %d holds %v, golden %#x encodes differently", step, w, r.words[w], r.golden[w])
		}
	}
}

// runCleanWordOracle applies the operations encoded in ops to a fresh
// region of the kind and to the reference model, failing on the first
// divergence. It returns the region's final stats.
func runCleanWordOracle(tb testing.TB, kind RegionKind, ops []byte) RegionStats {
	tb.Helper()
	r, err := NewRegion(kind, oracleWords*memtech.WordBytes)
	if err != nil {
		tb.Fatal(err)
	}
	ref := newRefRegion(tb, kind, oracleWords)
	codeBits := r.codec.CodeBits()
	s := &opStream{b: ops}
	for step := 0; s.more(); step++ {
		switch op := s.next() % 12; op {
		case 0, 1, 2: // write a burst
			w := s.word(oracleWords)
			vals := make([]uint32, 1+int(s.next())%8)
			if w+len(vals) > oracleWords {
				vals = vals[:oracleWords-w]
			}
			for i := range vals {
				vals[i] = s.u32()
			}
			cyc, oc, err := r.WriteChecked(w, vals)
			if err != nil {
				tb.Fatal(err)
			}
			refCyc, refOC := ref.write(w, vals)
			if cyc != refCyc || oc.Retries != refOC.Retries || !slices.Equal(oc.Failed, refOC.Failed) {
				tb.Fatalf("step %d: WriteChecked(%d, %d words) = %d %+v, reference %d %+v", step, w, len(vals), cyc, oc, refCyc, refOC)
			}
		case 3: // planned strike
			w, d := s.word(oracleWords), s.strikeDelta(codeBits)
			if err := r.ApplyStrikeDelta(w, d); err != nil {
				tb.Fatal(err)
			}
			if !kind.Immune() {
				ref.words[w] = ref.words[w].Xor(ecc.BitsFromUint64(d))
			}
		case 4: // live strike
			w, mult, seed := s.word(oracleWords), 1+int(s.next())%4, int64(s.next())
			hit, err := r.InjectStrike(rand.New(rand.NewSource(seed)), w, mult)
			if err != nil {
				tb.Fatal(err)
			}
			if hit != !kind.Immune() {
				tb.Fatalf("step %d: InjectStrike hit = %v on %v", step, hit, kind)
			}
			if hit {
				ref.words[w] = faults.InjectCluster(rand.New(rand.NewSource(seed)), ref.words[w], codeBits, mult)
			}
		case 5: // stuck cell
			w, bit, val := s.word(oracleWords), int(s.next())%codeBits, s.next()&1 == 1
			if err := r.InjectStuckAt(w, bit, val); err != nil {
				tb.Fatal(err)
			}
			ref.setStuck(w, bit, val)
		case 6: // checkpoint restore
			w := s.word(oracleWords)
			cyc, err := r.RestoreWord(w)
			if err != nil {
				tb.Fatal(err)
			}
			ref.store(w, ref.codec.Encode(ecc.BitsFromUint64(uint64(ref.golden[w]))))
			ref.writes[w]++
			ref.stats.WriteAccesses++
			ref.stats.WordsWritten++
			ref.stats.Energy += ref.bank.AccessEnergy(memtech.WordBytes, true)
			if want := ref.bank.AccessLatency(memtech.WordBytes, true); cyc != want {
				tb.Fatalf("step %d: RestoreWord cycles = %d, want %d", step, cyc, want)
			}
			// A rewrite re-derives the bit, so a restore that took
			// leaves the word clean rather than conservatively dirty.
			if corrupt := r.words[w] != r.codec.Encode(ecc.BitsFromUint64(uint64(r.golden[w]))); r.isDirty(w) != corrupt {
				tb.Fatalf("step %d: restored word %d dirty = %v, corrupt = %v", step, w, r.isDirty(w), corrupt)
			}
		case 7: // retirement, rare
			w := s.word(oracleWords)
			if s.next()%4 == 0 {
				if err := r.RetireWord(w); err != nil {
					tb.Fatal(err)
				}
				ref.retired[w] = true
			}
		case 8: // scrub
			rep, det, cyc := r.ScrubWords()
			refRep, refDet, refCyc := ref.scrub()
			if rep != refRep || cyc != refCyc || !slices.Equal(det, refDet) {
				tb.Fatalf("step %d: ScrubWords = %d %v %d, reference %d %v %d", step, rep, det, cyc, refRep, refDet, refCyc)
			}
		case 9: // audit
			if got, want := r.Audit(), ref.audit(); got != want {
				tb.Fatalf("step %d: Audit = %+v, reference %+v", step, got, want)
			}
		case 10: // wear model on or rescaled
			if ref.wear == nil {
				cfg := WearConfig{WriteFailProb: 0.2, MaxWriteRetries: int(s.next()) % 3, StuckAtProb: 0.05}
				seed := int64(s.next())
				if err := r.EnableWear(cfg, seed); err != nil {
					tb.Fatal(err)
				}
				ref.wear = &wearModel{cfg: cfg, rng: rand.New(rand.NewSource(seed)), scale: 1}
			} else {
				scale := float64(s.next()%6) / 2
				r.SetWearScale(scale)
				ref.wear.scale = scale
			}
		default: // checked read
			w := s.word(oracleWords)
			n := int(s.next()) % 17
			if w+n > oracleWords {
				n = oracleWords - w
			}
			got, cyc, oc, err := r.ReadChecked(w, n)
			if err != nil {
				tb.Fatal(err)
			}
			want, refCyc, refOC := ref.read(w, n)
			if !slices.Equal(got, want) || cyc != refCyc || oc.Corrected != refOC.Corrected || !slices.Equal(oc.Detected, refOC.Detected) {
				tb.Fatalf("step %d: ReadChecked(%d, %d) = %v %d %+v, reference %v %d %+v", step, w, n, got, cyc, oc, want, refCyc, refOC)
			}
		}
		checkCleanInvariant(tb, r, step)
		if !slices.Equal(r.words, ref.words) || !slices.Equal(r.golden, ref.golden) || !slices.Equal(r.writes, ref.writes) {
			tb.Fatalf("step %d: stored state diverged from the reference", step)
		}
		if r.stats != ref.stats {
			tb.Fatalf("step %d: stats = %+v, reference %+v", step, r.stats, ref.stats)
		}
	}
	return r.Stats()
}

// TestRegionCleanWordOracle runs seeded random operation sequences over
// every region kind through the oracle, and checks that the SEC-DED runs
// exercised correct-on-read, detection and miscorrection.
func TestRegionCleanWordOracle(t *testing.T) {
	for _, kind := range oracleKinds {
		t.Run(kind.String(), func(t *testing.T) {
			var total RegionStats
			for seed := int64(1); seed <= 20; seed++ {
				ops := make([]byte, 6000)
				rand.New(rand.NewSource(seed)).Read(ops)
				st := runCleanWordOracle(t, kind, ops)
				total.CorrectedErrors += st.CorrectedErrors
				total.DetectedErrors += st.DetectedErrors
				total.SilentReads += st.SilentReads
			}
			if kind == RegionECC && (total.CorrectedErrors == 0 || total.DetectedErrors == 0 || total.SilentReads == 0) {
				t.Errorf("SEC-DED runs missed an outcome class: %+v", total)
			}
			if !kind.Immune() && total.SilentReads+total.DetectedErrors == 0 {
				t.Errorf("no corrupted word was ever read: %+v", total)
			}
		})
	}
}

// FuzzRegionCleanWords drives the oracle from fuzzer bytes.
func FuzzRegionCleanWords(f *testing.F) {
	f.Add(uint8(1), []byte{3, 0, 5, 0, 7, 11, 0, 5, 0})          // strike then read
	f.Add(uint8(1), []byte{3, 0, 9, 2, 3, 8, 11, 0, 8, 4})       // 3-bit strike, scrub, read
	f.Add(uint8(2), []byte{0, 0, 1, 3, 1, 2, 3, 4, 5, 0, 0, 9})  // parity write, stuck, audit
	f.Add(uint8(4), []byte{10, 1, 7, 0, 0, 0, 7, 9, 9, 9, 9, 8}) // DMR wear writes
	f.Add(uint8(0), []byte{5, 0, 2, 3, 1, 11, 0, 2, 4, 6, 0, 2}) // STT stuck cell
	f.Fuzz(func(t *testing.T, kind uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runCleanWordOracle(t, oracleKinds[int(kind)%len(oracleKinds)], ops)
	})
}
