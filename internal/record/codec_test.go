package record

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Fixed16 block and wire encodings must be byte-identical to the
// original hand-rolled layout: 16 bytes little-endian per record.
func TestFixed16LayoutUnchanged(t *testing.T) {
	rs := []Record{{Key: 0x0102030405060708, Val: 0x1112131415161718}, {Key: 1, Val: 2}}
	enc, err := Fixed16{}.AppendBlock(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
		0x01, 0, 0, 0, 0, 0, 0, 0,
		0x02, 0, 0, 0, 0, 0, 0, 0,
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("fixed16 encoding moved:\n got %x\nwant %x", enc, want)
	}
	dec, err := Fixed16{}.DecodeBlock(enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if dec[i] != rs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, dec[i], rs[i])
		}
	}
	if _, err := (Fixed16{}).AppendRecord(nil, Record{Ext: "x"}); err == nil {
		t.Fatal("fixed16 accepted a variable-length record")
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range append(CodecNames(), "") {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		if name != "" && c.Name() != name {
			t.Fatalf("CodecByName(%q).Name() = %q", name, c.Name())
		}
	}
	if c, _ := CodecByName(""); c.Name() != "fixed16" {
		t.Fatal("empty codec name is not fixed16")
	}
	if _, err := CodecByName("zstd"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// MakeVar/VarParts round-trip, and the derived prefix words coarsen —
// never invert — the lexicographic key order.
func TestMakeVarPrefixOrder(t *testing.T) {
	keys := [][]byte{
		{}, {0}, {1}, {0xff}, []byte("A"), []byte("AA"), []byte("AAAAAAAA"),
		[]byte("AAAAAAAAA"), []byte("AAAAAAAAZ"), []byte("AAAAAAAAAB"),
		[]byte("AAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAB"),
		bytes.Repeat([]byte{0xff}, 20),
	}
	var recs []Record
	for _, k := range keys {
		r, err := MakeVar(k, []byte("p"))
		if err != nil {
			t.Fatal(err)
		}
		gotK, gotP, err := VarParts(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotK, k) || string(gotP) != "p" {
			t.Fatalf("round trip of key %x: got key %x payload %q", k, gotK, gotP)
		}
		if r.Key == MaxKey {
			t.Fatalf("key %x mapped onto the MaxKey sentinel", k)
		}
		recs = append(recs, r)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	SortRecords(recs)
	for i, r := range recs {
		k, _, _ := VarParts(r)
		if !bytes.Equal(k, keys[i]) {
			t.Fatalf("rank %d: sorted records give key %x, lexicographic order wants %x", i, k, keys[i])
		}
	}
}

// The documented CompareExt trap: a raw bytes-compare of encodings would
// order the 10-byte key "AAAAAAAAAB" before the 9-byte "AAAAAAAAZ"
// (its uvarint length byte is smaller); the decoded comparison must not.
func TestCompareExtDecodesKeyLength(t *testing.T) {
	prefix := strings.Repeat("A", 16)
	a, _ := MakeVar([]byte(prefix+"Z"), nil)  // 17-byte key
	b, _ := MakeVar([]byte(prefix+"AB"), nil) // 18-byte key, lexicographically smaller
	if strings.Compare(a.Ext, b.Ext) >= 0 {
		t.Fatal("test vector no longer exercises the raw-compare trap")
	}
	if CompareExt(a.Ext, b.Ext) <= 0 {
		t.Fatal("CompareExt must order the longer-but-smaller key first")
	}
	if a.Key != b.Key || a.Val != b.Val {
		t.Fatal("test vector should be prefix-tied")
	}

	// Every pair, well-formed or not, must order exactly as the
	// reference split-then-compare form does.
	encs := []string{"", "\x00", "\x00p", "\x01", "\x01k", "\x01kp", "\x02k", "\x80",
		"\x80\x01", "\x80\x80\x80\x80\x80\x01", "\xff\xff\xff\xff\x0f", a.Ext, b.Ext}
	for _, k := range []string{"", "A", "AB", prefix, prefix + "A"} {
		for _, p := range []string{"", "p", "q"} {
			r, _ := MakeVar([]byte(k), []byte(p))
			encs = append(encs, r.Ext)
		}
	}
	for _, x := range encs {
		for _, y := range encs {
			if got, want := CompareExt(x, y), compareExtRef(x, y); got != want {
				t.Errorf("CompareExt(%q, %q) = %d, reference says %d", x, y, got, want)
			}
		}
	}
}

// compareExtRef is the reference record order over canonical encodings:
// split each into key and payload bytes with encoding/binary and compare
// them with bytes.Compare, falling back to a raw compare when either
// encoding does not split.
func compareExtRef(a, b string) int {
	split := func(ext string) (key, payload []byte, ok bool) {
		if ext == "" {
			return nil, nil, false
		}
		klen, n := binary.Uvarint([]byte(ext[:min(len(ext), binary.MaxVarintLen32)]))
		if n <= 0 || klen > uint64(len(ext)-n) {
			return nil, nil, false
		}
		return []byte(ext[n : n+int(klen)]), []byte(ext[n+int(klen):]), true
	}
	ak, ap, aok := split(a)
	bk, bp, bok := split(b)
	if !aok || !bok {
		return strings.Compare(a, b)
	}
	if c := bytes.Compare(ak, bk); c != 0 {
		return c
	}
	return bytes.Compare(ap, bp)
}

func TestVarlenBlockRoundTrip(t *testing.T) {
	for _, codec := range []Codec{Varlen{}, Varlen{Flate: true}} {
		g := NewGenerator(7)
		rs := g.RandomVar(257, 24, 40)
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > codec.MaxBlockBytes(len(rs)) {
			t.Fatalf("%s: encoded %d bytes exceeds MaxBlockBytes %d",
				codec.Name(), len(enc), codec.MaxBlockBytes(len(rs)))
		}
		dec, err := codec.DecodeBlock(enc, len(rs))
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		for i := range rs {
			if dec[i] != rs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", codec.Name(), i, dec[i], rs[i])
			}
		}
	}
}

// Compressible payloads must shrink under varlen+flate and still decode.
func TestVarlenFlateCompresses(t *testing.T) {
	var rs []Record
	for i := 0; i < 64; i++ {
		r, err := MakeVar([]byte("key"), bytes.Repeat([]byte("abab"), 32))
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	raw, _ := Varlen{}.AppendBlock(nil, rs)
	zip, _ := Varlen{Flate: true}.AppendBlock(nil, rs)
	if len(zip) >= len(raw) {
		t.Fatalf("flate did not compress: raw %d, flate %d", len(raw), len(zip))
	}
	dec, err := Varlen{Flate: true}.DecodeBlock(zip, len(rs))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(rs) || dec[0] != rs[0] {
		t.Fatal("flate round trip lost records")
	}
}

func TestVarlenWireRoundTrip(t *testing.T) {
	for _, codec := range []Codec{Fixed16{}, Varlen{}, Varlen{Flate: true}} {
		g := NewGenerator(11)
		var rs []Record
		if codec.FixedSize() > 0 {
			rs = g.Random(100)
		} else {
			rs = g.RandomVar(100, 16, 24)
		}
		var wire []byte
		var err error
		for _, r := range rs {
			if wire, err = codec.AppendRecord(wire, r); err != nil {
				t.Fatal(err)
			}
		}
		br := bufio.NewReader(bytes.NewReader(wire))
		for i := range rs {
			r, err := codec.ReadRecord(br)
			if err != nil {
				t.Fatalf("%s: record %d: %v", codec.Name(), i, err)
			}
			if r != rs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", codec.Name(), i, r, rs[i])
			}
		}
		if _, err := codec.ReadRecord(br); err != io.EOF {
			t.Fatalf("%s: want io.EOF at clean boundary, got %v", codec.Name(), err)
		}
	}
}

// Truncations at every byte offset must yield ErrCorrupt (or clean EOF
// at offset 0 for the wire form), never a panic or silent short decode.
func TestCodecTruncation(t *testing.T) {
	g := NewGenerator(3)
	rs := g.RandomVar(8, 12, 12)
	for _, codec := range []Codec{Varlen{}, Varlen{Flate: true}} {
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := codec.DecodeBlock(enc[:cut], len(rs)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncation at %d/%d: err = %v, want ErrCorrupt",
					codec.Name(), cut, len(enc), err)
			}
		}
	}
	fixEnc, _ := Fixed16{}.AppendBlock(nil, []Record{{Key: 1, Val: 2}})
	if _, err := (Fixed16{}).DecodeBlock(fixEnc[:10], 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fixed16 truncation: err = %v, want ErrCorrupt", err)
	}
}

// Bit flips in any position must decode to ErrCorrupt or to a block of
// records that still parses (flips inside key/payload bytes are data
// corruption the CRC layer owns, not framing corruption) — never panic.
func TestVarlenBitFlips(t *testing.T) {
	g := NewGenerator(5)
	rs := g.RandomVar(16, 10, 10)
	for _, codec := range []Codec{Varlen{}, Varlen{Flate: true}} {
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range enc {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 1 << bit
				dec, err := codec.DecodeBlock(mut, len(rs))
				if err == nil && len(dec) != len(rs) {
					t.Fatalf("%s: flip %d.%d decoded %d records without error", codec.Name(), i, bit, len(dec))
				}
			}
		}
	}
}

func TestChecksumSeesExt(t *testing.T) {
	a, _ := MakeVar([]byte("k"), []byte("p1"))
	b, _ := MakeVar([]byte("k"), []byte("p2"))
	if a.Key != b.Key || a.Val != b.Val {
		t.Fatal("vectors should differ only in payload")
	}
	if Checksum([]Record{a}) == Checksum([]Record{b}) {
		t.Fatal("checksum is blind to Ext bytes")
	}
	// Fixed-size records keep the original checksum (empty Ext folds
	// nothing), so historical golden sums remain valid.
	if Checksum([]Record{{Key: 9, Val: 4}}) != Checksum([]Record{{Key: 9, Val: 4, Ext: ""}}) {
		t.Fatal("empty Ext changed the checksum")
	}
}

// FuzzCodecRoundTrip drives both directions of every codec: valid
// records must round-trip block- and wire-wise, and arbitrary mutated
// bytes (the fuzzer's corpus evolves truncated tails and bit flips) must
// decode to ErrCorrupt or a well-formed block — never a panic.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{}, 3)
	f.Add(int64(2), uint8(1), []byte{0x00, 0x01, 0xff}, 5)
	f.Add(int64(3), uint8(2), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 1)
	f.Fuzz(func(t *testing.T, seed int64, codecPick uint8, raw []byte, nrec int) {
		codecs := []Codec{Fixed16{}, Varlen{}, Varlen{Flate: true}}
		codec := codecs[int(codecPick)%len(codecs)]
		if nrec < 0 || nrec > 1<<12 {
			return
		}

		// Direction 1: adversarial bytes into the decoders. Must not
		// panic; errors must be ErrCorrupt (framing) for the varlen
		// codecs or length mismatches for fixed16.
		if dec, err := codec.DecodeBlock(raw, nrec); err == nil {
			if len(dec) != nrec {
				t.Fatalf("%s: decoded %d records, asked for %d", codec.Name(), len(dec), nrec)
			}
			// A successful decode must re-encode decodably (not
			// necessarily to identical bytes: flate blocks may
			// re-encode raw).
			enc, err := codec.AppendBlock(nil, dec)
			if err != nil {
				t.Fatalf("%s: re-encoding decoded block: %v", codec.Name(), err)
			}
			if _, err := codec.DecodeBlock(enc, nrec); err != nil {
				t.Fatalf("%s: decoded block does not re-decode: %v", codec.Name(), err)
			}
		} else if codec.FixedSize() == 0 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: decode error does not wrap ErrCorrupt: %v", codec.Name(), err)
		}
		br := bufio.NewReader(bytes.NewReader(raw))
		for {
			if _, err := codec.ReadRecord(br); err != nil {
				if err != io.EOF && codec.FixedSize() == 0 && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: wire decode error does not wrap ErrCorrupt: %v", codec.Name(), err)
				}
				break
			}
		}

		// CompareExt must agree with the reference order on arbitrary
		// encodings (both halves of raw) and on generated ones.
		half := len(raw) / 2
		if got, want := CompareExt(string(raw[:half]), string(raw[half:])), compareExtRef(string(raw[:half]), string(raw[half:])); got != want {
			t.Fatalf("CompareExt(%x, %x) = %d, reference says %d", raw[:half], raw[half:], got, want)
		}

		// Direction 2: generated records must round-trip exactly.
		g := NewGenerator(seed)
		n := nrec%64 + 1
		var rs []Record
		if codec.FixedSize() > 0 {
			rs = g.Random(n)
		} else {
			rs = g.RandomVar(n, 20, 20)
		}
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.DecodeBlock(enc, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			if dec[i] != rs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", codec.Name(), i, dec[i], rs[i])
			}
			if j := (i + 1) % n; CompareExt(rs[i].Ext, rs[j].Ext) != compareExtRef(rs[i].Ext, rs[j].Ext) {
				t.Fatalf("CompareExt(%q, %q) disagrees with the reference", rs[i].Ext, rs[j].Ext)
			}
		}
	})
}

// freshFlateBlock is the reference Varlen{Flate: true} block encoding:
// a brand-new flate.Writer per block, as the codec built before it
// pooled its compressors. Pooled output must match it byte for byte.
func freshFlateBlock(t *testing.T, rs []Record) []byte {
	t.Helper()
	body, err := Varlen{}.AppendBlock(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	body = body[1:] // drop the raw flag byte
	var zbuf bytes.Buffer
	zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if zbuf.Len() < len(body) {
		return append([]byte{varlenFlate}, zbuf.Bytes()...)
	}
	return append([]byte{varlenRaw}, body...)
}

// codecTestBlocks returns blocks covering every encoder branch:
// compressible (flate), incompressible (raw fallback), empty payloads,
// a single record, and no records at all.
func codecTestBlocks(t *testing.T, seed int64) map[string][]Record {
	t.Helper()
	g := NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed))
	mk := func(n, keyLen, payLen int, random bool) []Record {
		rs := make([]Record, n)
		for i := range rs {
			key, pay := make([]byte, keyLen), make([]byte, payLen)
			if random {
				rng.Read(key)
				rng.Read(pay)
			} else {
				for j := range key {
					key[j] = "ACGT"[rng.Intn(4)]
				}
			}
			r, err := MakeVar(key, pay)
			if err != nil {
				t.Fatal(err)
			}
			rs[i] = r
		}
		return rs
	}
	return map[string][]Record{
		"random":         g.RandomVar(64, 24, 40),
		"compressible":   mk(64, 20, 32, false),
		"incompressible": mk(64, 16, 64, true),
		"empty-payload":  mk(64, 12, 0, false),
		"one-record":     mk(1, 8, 8, true),
		"no-records":     nil,
	}
}

func TestVarlenPooledFlateMatchesFreshWriter(t *testing.T) {
	codec := Varlen{Flate: true}
	blocks := codecTestBlocks(t, 31)
	sawRaw, sawFlate := false, false
	// Several rounds, so later blocks run on recycled pool state.
	for round := 0; round < 3; round++ {
		for name, rs := range blocks {
			want := freshFlateBlock(t, rs)
			prefix := []byte("hdr")
			got, err := codec.AppendBlock(append([]byte(nil), prefix...), rs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s round %d: pooled encoding differs from a fresh flate.Writer:\n got %x\nwant %x",
					name, round, got[len(prefix):], want)
			}
			sawRaw = sawRaw || want[0] == varlenRaw
			sawFlate = sawFlate || want[0] == varlenFlate
			dec, err := codec.DecodeBlock(got[len(prefix):], len(rs))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range rs {
				if dec[i] != rs[i] {
					t.Fatalf("%s: record %d = %+v, want %+v", name, i, dec[i], rs[i])
				}
			}
		}
	}
	if !sawRaw || !sawFlate {
		t.Fatalf("test blocks miss an encoder branch: raw %v, flate %v", sawRaw, sawFlate)
	}
	if freshFlateBlock(t, blocks["incompressible"])[0] != varlenRaw {
		t.Fatal("incompressible block no longer takes the raw fallback")
	}
}

// One codec value is shared by every disk worker of a sort: concurrent
// encodes and decodes through it must neither race nor cross streams.
func TestVarlenSharedCodecConcurrent(t *testing.T) {
	codec := Varlen{Flate: true}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		blocks := codecTestBlocks(t, int64(100+w))
		wants := make(map[string][]byte, len(blocks))
		for name, rs := range blocks {
			wants[name] = freshFlateBlock(t, rs)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for name, rs := range blocks {
					enc, err := codec.AppendBlock(nil, rs)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(enc, wants[name]) {
						t.Errorf("%s: concurrent encoding differs from the reference", name)
						return
					}
					dec, err := codec.DecodeBlock(enc, len(rs))
					if err != nil {
						t.Error(err)
						return
					}
					for i := range rs {
						if dec[i] != rs[i] {
							t.Errorf("%s: record %d = %+v, want %+v", name, i, dec[i], rs[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// A pooled inflater that failed on a corrupt block must come back
// clean: the next block it decodes is decoded correctly.
func TestVarlenPooledReaderRecoversFromCorruptBlock(t *testing.T) {
	codec := Varlen{Flate: true}
	rs := codecTestBlocks(t, 41)["compressible"]
	valid, err := codec.AppendBlock(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	if valid[0] != varlenFlate {
		t.Fatal("test block does not compress")
	}
	corrupt := map[string]func() ([]byte, int){
		"truncated": func() ([]byte, int) { return valid[:len(valid)/2], len(rs) },
		"bad-block-type": func() ([]byte, int) {
			b := append([]byte(nil), valid...)
			b[1] |= 0x06 // BTYPE 11: reserved, an invalid deflate block
			return b, len(rs)
		},
		"past-bound": func() ([]byte, int) { return valid, 1 }, // inflates past 1 record's bound
	}
	for round := 0; round < 4; round++ {
		for name, mk := range corrupt {
			data, nrec := mk()
			if _, err := codec.DecodeBlock(data, nrec); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
			}
			dec, err := codec.DecodeBlock(valid, len(rs))
			if err != nil {
				t.Fatalf("valid block after %s: %v", name, err)
			}
			for i := range rs {
				if dec[i] != rs[i] {
					t.Fatalf("valid block after %s: record %d = %+v, want %+v", name, i, dec[i], rs[i])
				}
			}
		}
	}
}

// Allocation guards for the varlen block path and the varlen tie-break.
// The bounds may only tighten: encoding into a sized buffer allocates
// nothing, decoding allocates the record slice plus one string for the
// whole block, and comparing allocates nothing.
func TestVarlenCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rs := codecTestBlocks(t, 51)["compressible"]
	a, b := rs[0].Ext, rs[1].Ext
	for _, codec := range []Varlen{{}, {Flate: true}} {
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, codec.MaxBlockBytes(len(rs)))
		for _, c := range []struct {
			what  string
			bound float64
			fn    func()
		}{
			{"AppendBlock", 0, func() { _, _ = codec.AppendBlock(dst, rs) }},
			{"DecodeBlock", 2, func() { _, _ = codec.DecodeBlock(enc, len(rs)) }},
			{"CompareExt", 0, func() { _ = CompareExt(a, b) }},
		} {
			if got := testing.AllocsPerRun(100, c.fn); got > c.bound {
				t.Errorf("%s %s: %.1f allocs per call, want <= %.0f", codec.Name(), c.what, got, c.bound)
			}
		}
	}
}
