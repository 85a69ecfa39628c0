package jpeg

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var in, freq, back [64]float64
	for i := range in {
		in[i] = float64(rng.Intn(256)) - 128
	}
	forwardDCT(&in, &freq)
	inverseDCT(&freq, &back)
	for i := range in {
		if math.Abs(in[i]-back[i]) > 1e-9 {
			t.Fatalf("DCT round trip diverged at %d: %f vs %f", i, in[i], back[i])
		}
	}
}

func TestDCTDCCoefficient(t *testing.T) {
	// A constant block has all energy in DC: coef[0] = 8*value.
	var in, freq [64]float64
	for i := range in {
		in[i] = 100
	}
	forwardDCT(&in, &freq)
	if math.Abs(freq[0]-800) > 1e-9 {
		t.Fatalf("DC coefficient = %f, want 800", freq[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(freq[i]) > 1e-9 {
			t.Fatalf("AC coefficient %d = %f, want 0", i, freq[i])
		}
	}
}

func TestPropertyDCTLinear(t *testing.T) {
	prop := func(seed int64, scaleRaw uint8) bool {
		scale := float64(scaleRaw%7) + 1
		rng := rand.New(rand.NewSource(seed))
		var a, fa, b, fb [64]float64
		for i := range a {
			a[i] = float64(rng.Intn(256)) - 128
			b[i] = a[i] * scale
		}
		forwardDCT(&a, &fa)
		forwardDCT(&b, &fb)
		for i := range fa {
			if math.Abs(fa[i]*scale-fb[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMagnitudeRoundTrip(t *testing.T) {
	for v := -2047; v <= 2047; v++ {
		cat, bits := magnitude(v)
		if got := demagnitude(cat, bits); got != v {
			t.Fatalf("magnitude round trip: %d -> (%d,%b) -> %d", v, cat, bits, got)
		}
	}
}

func TestBitWriterReader(t *testing.T) {
	var w bitWriter
	w.write(0b101, 3)
	w.write(0b0, 1)
	w.write(0b11111111111, 11)
	buf := w.flush()
	r := bitReader{buf: buf}
	if v, _ := r.read(3); v != 0b101 {
		t.Fatalf("read(3) = %b", v)
	}
	if v, _ := r.read(1); v != 0 {
		t.Fatalf("read(1) = %b", v)
	}
	if v, _ := r.read(11); v != 0b11111111111 {
		t.Fatalf("read(11) = %b", v)
	}
}

func TestHuffmanTablesInvertible(t *testing.T) {
	for _, spec := range []huffSpec{dcLuminanceSpec, acLuminanceSpec} {
		tab := buildHuffTable(spec)
		for _, sym := range spec.values {
			var w bitWriter
			if err := tab.encode(&w, sym); err != nil {
				t.Fatal(err)
			}
			r := bitReader{buf: w.flush()}
			got, err := tab.decode(&r)
			if err != nil {
				t.Fatalf("decode of %#x: %v", sym, err)
			}
			if got != sym {
				t.Fatalf("Huffman round trip: %#x -> %#x", sym, got)
			}
		}
	}
}

func TestEncodeDecodeQuality(t *testing.T) {
	img := Synthetic(128, 128, 5)
	for _, q := range []int{50, 75, 90} {
		enc, err := Encode(img, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc.Bits) >= len(img.Pix) {
			t.Fatalf("q=%d: no compression: %d bits bytes for %d pixels", q, len(enc.Bits), len(img.Pix))
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		psnr, err := PSNR(img, dec)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 27 {
			t.Fatalf("q=%d: PSNR %.1f dB too low", q, psnr)
		}
	}
}

func TestHigherQualityHigherPSNRAndSize(t *testing.T) {
	img := Synthetic(64, 64, 6)
	encLo, err := Encode(img, 40)
	if err != nil {
		t.Fatal(err)
	}
	encHi, err := Encode(img, 95)
	if err != nil {
		t.Fatal(err)
	}
	if len(encHi.Bits) <= len(encLo.Bits) {
		t.Fatalf("q=95 (%d B) should be larger than q=40 (%d B)", len(encHi.Bits), len(encLo.Bits))
	}
	decLo, _ := Decode(encLo)
	decHi, _ := Decode(encHi)
	pLo, _ := PSNR(img, decLo)
	pHi, _ := PSNR(img, decHi)
	if pHi <= pLo {
		t.Fatalf("q=95 PSNR %.1f should beat q=40 PSNR %.1f", pHi, pLo)
	}
}

func TestCompressionRatioInPaperRange(t *testing.T) {
	// The paper: "Image compression technology can compress images by
	// 1/10-1/50 of their original size without affecting image quality."
	cfg := DefaultConfig()
	res, err := Sequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(cfg.W*cfg.H) / float64(res.CompressedBytes)
	if ratio < 2.5 {
		t.Fatalf("compression ratio %.1f:1 too low for a DCT codec", ratio)
	}
}

func TestEncodedMarshalRoundTrip(t *testing.T) {
	img := Synthetic(64, 32, 7)
	enc, err := Encode(img, 75)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalEncoded(enc.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.W != enc.W || got.H != enc.H || got.Quality != enc.Quality || len(got.Bits) != len(enc.Bits) {
		t.Fatalf("marshal round trip mismatch: %+v vs %+v", got, enc)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalEncoded([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header should error")
	}
	enc := &Encoded{W: 8, H: 8, Quality: 75, Bits: []byte{1, 2, 3, 4}}
	raw := enc.Marshal()
	if _, err := UnmarshalEncoded(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated bits should error")
	}
}

func TestBandRowsCoverImage(t *testing.T) {
	for _, h := range []int{64, 128, 512, 520} {
		for n := 1; n <= 8; n++ {
			rows := bandRows(h, n)
			sum := 0
			for _, r := range rows {
				if r%8 != 0 {
					t.Fatalf("h=%d n=%d: band height %d not a strip multiple", h, n, r)
				}
				sum += r
			}
			if sum != h&^7 {
				t.Fatalf("h=%d n=%d: bands cover %d rows, want %d", h, n, sum, h&^7)
			}
			if n > 1 && rows[0] < rows[n-1] {
				t.Fatalf("h=%d n=%d: first band should absorb remainder: %v", h, n, rows)
			}
		}
	}
}

func TestEncodeRejectsUnalignedImage(t *testing.T) {
	if _, err := Encode(&Image{W: 10, H: 8, Pix: make([]byte, 80)}, 75); err == nil {
		t.Fatal("unaligned width should error")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(64, 64, 42)
	b := Synthetic(64, 64, 42)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("synthetic image not deterministic")
		}
	}
	c := Synthetic(64, 64, 43)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical images")
	}
}

// TestSyntheticPinned pins the synthetic images byte for byte: every
// compressed size and PSNR in the paper's APL figures derives from them.
func TestSyntheticPinned(t *testing.T) {
	for _, c := range []struct {
		w, h int
		seed int64
		sha  string
	}{
		{512, 512, 9, "c454427edfb484f292731bed119bef8cac7ab87e59910fb0e5d7968bd4bf1ee1"},
		{64, 64, 9, "1adc9f2adb4f135bd8db0be6f2515a41acf54f4b5b0d87773adfad4680702607"},
		{200, 136, 3, "4689faaafeceddb8459acaaf2317d162b34f10344c51d5ced5dde9b4519c0cdc"},
	} {
		sum := sha256.Sum256(Synthetic(c.w, c.h, c.seed).Pix)
		if got := hex.EncodeToString(sum[:]); got != c.sha {
			t.Errorf("Synthetic(%d, %d, %d): sha256 %s, want %s", c.w, c.h, c.seed, got, c.sha)
		}
	}
}

// BenchmarkJPEGParallel runs one paper-scale APL cell: JPEG at procs 4
// over p4 on alpha-fddi.
func BenchmarkJPEGParallel(b *testing.B) {
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
		if r, ok := res.Value.(*Result); !ok || len(r.Bands) != 4 {
			b.Fatalf("unexpected result %#v", res.Value)
		}
	}
}
