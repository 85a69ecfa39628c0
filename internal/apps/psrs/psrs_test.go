package psrs

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

func TestSequentialSorts(t *testing.T) {
	res, err := Sequential(Config{Records: 10_000, RecordBytes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10_000 {
		t.Fatalf("count = %d", res.Count)
	}
	if res.Min > res.Max {
		t.Fatalf("min %d > max %d", res.Min, res.Max)
	}
}

func TestGenerateGlobalMultisetInvariantAcrossP(t *testing.T) {
	cfg := Config{Records: 5_000, RecordBytes: 64, Seed: 2}
	base := generate(cfg, 0, 1)
	for p := 2; p <= 8; p++ {
		var union []int64
		for r := 0; r < p; r++ {
			union = append(union, generate(cfg, r, p)...)
		}
		if len(union) != len(base) {
			t.Fatalf("p=%d: %d keys, want %d", p, len(union), len(base))
		}
		a := append([]int64(nil), base...)
		b := append([]int64(nil), union...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("p=%d: multiset differs at %d", p, i)
			}
		}
	}
}

func TestMergeRuns(t *testing.T) {
	runs := [][]int64{{1, 5, 9}, {2, 2, 8}, {}, {0, 10}}
	got := mergeRuns(runs)
	want := []int64{0, 1, 2, 2, 5, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("merge length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPropertyMergeSortedRuns(t *testing.T) {
	prop := func(raw [][]int16) bool {
		runs := make([][]int64, len(raw))
		total := 0
		for i, r := range raw {
			run := make([]int64, len(r))
			for j, v := range r {
				run[j] = int64(v)
			}
			sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
			runs[i] = run
			total += len(run)
		}
		got := mergeRuns(runs)
		if len(got) != total {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintOrderSensitivity(t *testing.T) {
	a := []int64{1, 2, 3}
	b := []int64{3, 2, 1}
	oa, ma := fingerprint(a)
	ob, mb := fingerprint(b)
	if ma != mb {
		t.Fatal("multiset fingerprint should be order-independent")
	}
	if oa == ob {
		t.Fatal("ordered fingerprint should be order-sensitive")
	}
}

func TestSummarizeRejectsUnsorted(t *testing.T) {
	if _, err := summarize([]int64{3, 1, 2}, []int{3}); err == nil {
		t.Fatal("unsorted output should be rejected")
	}
}

func TestLoadImbalance(t *testing.T) {
	r := &Result{Count: 100, PartSizes: []int{25, 25, 25, 25}}
	if got := r.LoadImbalance(); got != 1.0 {
		t.Fatalf("perfect balance = %f, want 1.0", got)
	}
	r2 := &Result{Count: 100, PartSizes: []int{40, 20, 20, 20}}
	if got := r2.LoadImbalance(); got != 1.6 {
		t.Fatalf("imbalance = %f, want 1.6", got)
	}
}

func TestScaledFloor(t *testing.T) {
	if DefaultConfig().Scaled(0.0000001).Records < 64 {
		t.Fatal("scaled keys below floor")
	}
}

// codecRecordBytes covers record sizes with no payload, a payload tail
// shorter than a word, whole words only, and whole words plus a tail.
var codecRecordBytes = []int{8, 9, 15, 16, 64, 70}

func TestRecordCodecRoundTrip(t *testing.T) {
	keys := []int64{0, 1, -5, 1 << 40, 999_999_937, math.MinInt64, math.MaxInt64}
	for _, rb := range append(codecRecordBytes, 100) {
		t.Run(fmt.Sprintf("rb=%d", rb), func(t *testing.T) {
			enc := encodeRecords(keys, rb)
			if len(enc) != len(keys)*rb {
				t.Fatalf("encoded %d bytes, want %d", len(enc), len(keys)*rb)
			}
			if want := encodeRecordsBytewise(keys, rb); !bytes.Equal(enc, want) {
				t.Fatal("encoding differs from the byte-wise reference encoding")
			}
			got, err := decodeRecords(enc, rb)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, keys) {
				t.Fatalf("round trip: got %v, want %v", got, keys)
			}
		})
	}
}

// TestRecordCodecCorruptionSweep flips every byte of an encoded run in
// turn and checks that decodeRecords names the same (record, byte) — or
// decodes the same keys — as the byte-wise reference decoder.
func TestRecordCodecCorruptionSweep(t *testing.T) {
	keys := []int64{42, -7, 1 << 33}
	for _, rb := range codecRecordBytes {
		enc := encodeRecords(keys, rb)
		for pos := range enc {
			for _, mask := range []byte{0x01, 0x80, 0xFF} {
				data := bytes.Clone(enc)
				data[pos] ^= mask
				got, err := decodeRecords(data, rb)
				want, wantErr := decodeRecordsBytewise(data, rb)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
					t.Fatalf("rb=%d byte %d ^%#x: got (%v, %v), want (%v, %v)", rb, pos, mask, got, err, want, wantErr)
				}
				if pos%rb >= 8 && err == nil {
					t.Fatalf("rb=%d byte %d ^%#x: payload corruption not detected", rb, pos, mask)
				}
			}
		}
	}
}

// FuzzDecodeRecords checks decodeRecords on arbitrary bytes against the
// byte-wise reference decoder, and that whatever it accepts re-encodes
// to the same bytes.
func FuzzDecodeRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, rb uint8) {
		recordBytes := int(rb) % 129
		got, err := decodeRecords(data, recordBytes)
		want, wantErr := decodeRecordsBytewise(data, recordBytes)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("got (%v, %v), want (%v, %v)", got, err, want, wantErr)
		}
		if err == nil && !bytes.Equal(encodeRecords(got, recordBytes), data) {
			t.Fatal("accepted records do not re-encode to the same bytes")
		}
	})
}

// encodeRecordsBytewise and decodeRecordsBytewise are the record codec
// written a byte at a time: the specification the word-wise codec must
// match byte for byte and error for error.
func encodeRecordsBytewise(keys []int64, recordBytes int) []byte {
	if recordBytes < 8 {
		recordBytes = 8
	}
	out := make([]byte, 0, len(keys)*recordBytes)
	for _, k := range keys {
		for i := 0; i < 8; i++ {
			out = append(out, byte(uint64(k)>>(56-8*i)))
		}
		w := payloadWord(k)
		for j := 0; j < recordBytes-8; j++ {
			out = append(out, byte(w>>(8*(j%8))))
		}
	}
	return out
}

func decodeRecordsBytewise(data []byte, recordBytes int) ([]int64, error) {
	if recordBytes < 8 {
		recordBytes = 8
	}
	if len(data)%recordBytes != 0 {
		return nil, fmt.Errorf("psrs: record payload length %d not a multiple of %d", len(data), recordBytes)
	}
	keys := make([]int64, len(data)/recordBytes)
	for i := range keys {
		rec := data[i*recordBytes : (i+1)*recordBytes]
		var k uint64
		for j := 0; j < 8; j++ {
			k = k<<8 | uint64(rec[j])
		}
		keys[i] = int64(k)
		w := payloadWord(keys[i])
		for j := 0; j < recordBytes-8; j++ {
			if rec[8+j] != byte(w>>(8*(j%8))) {
				return nil, fmt.Errorf("psrs: record %d payload corrupted at byte %d", i, j)
			}
		}
	}
	return keys, nil
}

func TestRecordCodecDetectsCorruption(t *testing.T) {
	enc := encodeRecords([]int64{42, 43}, 64)
	enc[70] ^= 0xFF // payload byte of record 1
	if _, err := decodeRecords(enc, 64); err == nil {
		t.Fatal("corrupted payload should be detected")
	}
	if _, err := decodeRecords(enc[:63], 64); err == nil {
		t.Fatal("truncated record should be detected")
	}
}

// BenchmarkPSRSRecordCodec encodes and decodes one rank's share of the
// paper-scale exchange (a quarter of the records at procs 4).
func BenchmarkPSRSRecordCodec(b *testing.B) {
	cfg := DefaultConfig()
	keys := generate(cfg, 0, 4)
	b.SetBytes(int64(len(keys) * cfg.RecordBytes))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRecords(encodeRecords(keys, cfg.RecordBytes), cfg.RecordBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSRSParallel runs one paper-scale APL cell: PSRS at procs 4
// over p4 on alpha-fddi.
func BenchmarkPSRSParallel(b *testing.B) {
	pf, err := platform.Get("alpha-fddi")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := tools.Factory("p4")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
			return Parallel(c, cfg)
		})
		if err != nil {
			b.Fatal(err)
		}
		if r, ok := res.Value.(*Result); !ok || r.Count != cfg.Records {
			b.Fatalf("unexpected result %#v", res.Value)
		}
	}
}
