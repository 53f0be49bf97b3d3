// Codec is the seam between in-memory records and their on-disk / wire
// encoding. The Fixed16 codec preserves the repository's original layout
// bit for bit: 16 bytes little-endian per record, 8 of key then 8 of
// payload, so every pre-codec file and benchmark baseline stays valid.
// The Varlen codec carries variable-length keys and payloads: each
// record's canonical encoding (Ext) is length-prefixed into the block,
// and the whole block body may optionally be flate-compressed. Both pack
// into the same CRC32-C checksummed FileStore blocks; the codec only
// owns the bytes between the checksum and the []Record.
//
// Decoding is defensive everywhere: truncated tails, overrunning length
// prefixes and bit-flipped varints all surface as errors wrapping
// ErrCorrupt — never a panic — because storage corruption that slips
// past a checksum (or arrives over the wire) must fail the operation,
// not the process.
package record

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// ErrCorrupt reports an encoding that cannot be decoded: a truncated
// tail, a length prefix overrunning its buffer, or an invalid varint.
var ErrCorrupt = errors.New("record: corrupt encoding")

// MaxVarRecordBytes caps one variable-length record's canonical encoding
// (uvarint key length + key + payload). It bounds the FileStore's
// per-block slot size and the wire reader's allocation per record.
const MaxVarRecordBytes = 1024

// Codec encodes records into block payloads and wire streams.
//
// Implementations must be safe for concurrent use — one codec value is
// shared by every disk worker of a sort — and may pool scratch state
// internally.
type Codec interface {
	// Name is the codec's registry identity — what checkpoints record
	// and resumes verify.
	Name() string
	// FixedSize returns the exact encoded size of every record, or 0
	// when records encode to variable sizes. FixedSize > 0 lets the
	// FileStore keep its original one-pread slot layout.
	FixedSize() int
	// MaxRecordBytes is the worst-case wire encoding of one record.
	MaxRecordBytes() int
	// MaxBlockBytes is the worst-case encoded size of a block of nrec
	// records — what fixed-slot stores size their slots by.
	MaxBlockBytes(nrec int) int
	// AppendBlock appends the encoded block body for rs to dst.
	AppendBlock(dst []byte, rs []Record) ([]byte, error)
	// DecodeBlock decodes exactly nrec records from an encoded block
	// body. Any framing violation returns an error wrapping ErrCorrupt.
	DecodeBlock(data []byte, nrec int) ([]Record, error)
	// AppendRecord appends one record's wire encoding to dst (the
	// streaming input/output format of the library and sortd).
	AppendRecord(dst []byte, r Record) ([]byte, error)
	// ReadRecord decodes the next wire record from br. It returns
	// io.EOF exactly at a clean record boundary; a mid-record end of
	// input is corruption.
	ReadRecord(br *bufio.Reader) (Record, error)
}

// CodecByName resolves a codec identity. The empty name is Fixed16 — the
// pre-codec default, so zero configs keep their exact old behavior.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "fixed16":
		return Fixed16{}, nil
	case "varlen":
		return Varlen{}, nil
	case "varlen+flate":
		return Varlen{Flate: true}, nil
	default:
		return nil, fmt.Errorf("record: unknown codec %q (want fixed16, varlen or varlen+flate)", name)
	}
}

// CodecNames lists the registered codec identities, for CLI help text.
func CodecNames() []string { return []string{"fixed16", "varlen", "varlen+flate"} }

// MakeVar builds a variable-length record from its key and payload
// bytes. The canonical encoding (Ext) is uvarint(len(key)) || key ||
// payload; Key and Val become the prefix words described at Record.
func MakeVar(key, payload []byte) (Record, error) {
	var pre [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(pre[:], uint64(len(key)))
	total := n + len(key) + len(payload)
	if total > MaxVarRecordBytes {
		return Record{}, fmt.Errorf("record: variable-length record encodes to %d bytes, max %d",
			total, MaxVarRecordBytes)
	}
	var sb strings.Builder
	sb.Grow(total)
	sb.Write(pre[:n])
	sb.Write(key)
	sb.Write(payload)
	ext := sb.String()
	r := Record{Ext: ext}
	r.Key, r.Val = extPrefixes(ext[n : n+len(key)])
	return r, nil
}

// VarParts splits a variable-length record back into its key and payload
// bytes. Both slices are freshly allocated and owned by the caller; they
// share one backing array, with key capped at its length so appending to
// key cannot overwrite payload. Records without an Ext (Fixed16 records)
// are rejected.
func VarParts(r Record) (key, payload []byte, err error) {
	if r.Ext == "" {
		return nil, nil, fmt.Errorf("record: VarParts of a fixed-size record")
	}
	klen, n, ok := extKeyLen(r.Ext)
	if !ok {
		return nil, nil, fmt.Errorf("%w: key length overruns %d-byte record", ErrCorrupt, len(r.Ext))
	}
	buf := []byte(r.Ext[n:])
	return buf[:klen:klen], buf[klen:], nil
}

// extKeyLen decodes the uvarint key length that opens a canonical
// encoding, returning it with the number of bytes it occupies. ok is
// false when the varint is invalid, longer than MaxVarintLen32 bytes, or
// claims more key bytes than ext holds. It reads the string in place, so
// the comparison hot path allocates nothing.
func extKeyLen(ext string) (klen, n int, ok bool) {
	var v uint64
	for i := 0; i < len(ext) && i < binary.MaxVarintLen32; i++ {
		b := ext[i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if v > uint64(len(ext)-i-1) {
				return 0, 0, false
			}
			return int(v), i + 1, true
		}
	}
	return 0, 0, false
}

// extPrefixes derives the (Key, Val) prefix words of a variable-length
// key: Key is the big-endian first 8 bytes zero-padded (clamped below
// MaxKey, which the forecasting machinery reserves as its "no successor"
// sentinel — the clamp is monotone, so prefix order stays a coarsening
// of lexicographic order), Val the big-endian bytes 8..16 zero-padded.
func extPrefixes(key string) (Key, uint64) {
	var w [16]byte
	copy(w[:], key)
	k := Key(binary.BigEndian.Uint64(w[0:8]))
	if k == MaxKey {
		k = MaxKey - 1
	}
	return k, binary.BigEndian.Uint64(w[8:16])
}

// CompareExt compares two canonical variable-length encodings under the
// full record order: key bytes lexicographically, then payload bytes.
// A raw bytes-compare of the encodings would be wrong — the uvarint key
// length would order a 9-byte key before a 10-byte key sharing its
// prefix — so the key length is decoded first. Undecodable encodings
// (never produced by MakeVar; possible only for hand-built records)
// fall back to comparing the raw encodings, keeping the order total.
func CompareExt(a, b string) int {
	ak, an, aok := extKeyLen(a)
	bk, bn, bok := extKeyLen(b)
	if !aok || !bok {
		return strings.Compare(a, b)
	}
	if c := strings.Compare(a[an:an+ak], b[bn:bn+bk]); c != 0 {
		return c
	}
	return strings.Compare(a[an+ak:], b[bn+bk:])
}

// Fixed16 is the original record layout: 16 bytes little-endian per
// record, 8 of key then 8 of payload. Encoded blocks and wire streams
// are byte-identical to every pre-codec version of this repository.
type Fixed16 struct{}

// Name implements Codec.
func (Fixed16) Name() string { return "fixed16" }

// FixedSize implements Codec.
func (Fixed16) FixedSize() int { return Bytes }

// MaxRecordBytes implements Codec.
func (Fixed16) MaxRecordBytes() int { return Bytes }

// MaxBlockBytes implements Codec.
func (Fixed16) MaxBlockBytes(nrec int) int { return nrec * Bytes }

// AppendBlock implements Codec.
func (Fixed16) AppendBlock(dst []byte, rs []Record) ([]byte, error) {
	for _, r := range rs {
		var err error
		if dst, err = (Fixed16{}).AppendRecord(dst, r); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBlock implements Codec.
func (Fixed16) DecodeBlock(data []byte, nrec int) ([]Record, error) {
	if len(data) != nrec*Bytes {
		return nil, fmt.Errorf("%w: fixed16 block is %d bytes, want %d for %d records",
			ErrCorrupt, len(data), nrec*Bytes, nrec)
	}
	rs := make([]Record, nrec)
	for i := range rs {
		rs[i] = Record{
			Key: Key(binary.LittleEndian.Uint64(data[i*Bytes:])),
			Val: binary.LittleEndian.Uint64(data[i*Bytes+8:]),
		}
	}
	return rs, nil
}

// AppendBlock16 is AppendBlock for the pointer-free kernel record: it
// produces byte-identical output without widening through Record, so the
// fixed16 write path never materialises the 32-byte layout. It cannot
// fail — a Rec16 has no Ext to reject.
func (Fixed16) AppendBlock16(dst []byte, rs []Rec16) []byte {
	var buf [Bytes]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Key))
		binary.LittleEndian.PutUint64(buf[8:], r.Val)
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeBlock16 is DecodeBlock into the pointer-free kernel record: the
// fixed16 read path decodes straight into noscan []Rec16 buffers.
func (Fixed16) DecodeBlock16(data []byte, nrec int) ([]Rec16, error) {
	if len(data) != nrec*Bytes {
		return nil, fmt.Errorf("%w: fixed16 block is %d bytes, want %d for %d records",
			ErrCorrupt, len(data), nrec*Bytes, nrec)
	}
	rs := make([]Rec16, nrec)
	for i := range rs {
		rs[i] = Rec16{
			Key: Key(binary.LittleEndian.Uint64(data[i*Bytes:])),
			Val: binary.LittleEndian.Uint64(data[i*Bytes+8:]),
		}
	}
	return rs, nil
}

// AppendRecord implements Codec.
func (Fixed16) AppendRecord(dst []byte, r Record) ([]byte, error) {
	if r.Ext != "" {
		return nil, fmt.Errorf("record: fixed16 codec cannot carry a variable-length record (%d ext bytes)", len(r.Ext))
	}
	var buf [Bytes]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.Key))
	binary.LittleEndian.PutUint64(buf[8:], r.Val)
	return append(dst, buf[:]...), nil
}

// ReadRecord implements Codec. It decodes in place from the reader's
// buffer (Peek, then Discard), so reading a record allocates nothing.
func (Fixed16) ReadRecord(br *bufio.Reader) (Record, error) {
	buf, err := br.Peek(Bytes)
	if len(buf) < Bytes {
		if len(buf) == 0 && err == io.EOF {
			return Record{}, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		_, _ = br.Discard(len(buf)) // cannot fail: the bytes are buffered
		return Record{}, fmt.Errorf("%w: truncated %d-byte record: %v", ErrCorrupt, Bytes, err)
	}
	r := Record{
		Key: Key(binary.LittleEndian.Uint64(buf[0:])),
		Val: binary.LittleEndian.Uint64(buf[8:]),
	}
	_, _ = br.Discard(Bytes) // cannot fail: Peek buffered them
	return r, nil
}

// Block body flags of the Varlen codec: the first byte of every encoded
// block says whether the record bytes that follow are stored raw or
// flate-compressed (compression is per block and adaptive — a block
// that does not shrink is stored raw, so the format never expands).
const (
	varlenRaw   = 0x00
	varlenFlate = 0x01
)

// Varlen is the variable-length codec: each record travels as
// uvarint(len(Ext)) || Ext, where Ext is the canonical encoding built by
// MakeVar. With Flate set, block bodies additionally pass through
// DEFLATE when that makes them smaller.
type Varlen struct {
	// Flate enables per-block DEFLATE compression of the record bytes.
	Flate bool
}

// Name implements Codec.
func (v Varlen) Name() string {
	if v.Flate {
		return "varlen+flate"
	}
	return "varlen"
}

// FixedSize implements Codec.
func (Varlen) FixedSize() int { return 0 }

// MaxRecordBytes implements Codec.
func (Varlen) MaxRecordBytes() int {
	return uvarintLen(MaxVarRecordBytes) + MaxVarRecordBytes
}

// MaxBlockBytes implements Codec.
func (v Varlen) MaxBlockBytes(nrec int) int {
	// Flag byte + worst-case raw records. Compression never expands the
	// stored body (AppendBlock falls back to raw), so this bound holds
	// for both variants.
	return 1 + nrec*v.MaxRecordBytes()
}

// AppendBlock implements Codec.
func (v Varlen) AppendBlock(dst []byte, rs []Record) ([]byte, error) {
	if !v.Flate {
		return v.appendRecords(append(dst, varlenRaw), rs)
	}
	z := deflaters.Get().(*deflater)
	defer z.release()
	var err error
	if z.body, err = v.appendRecords(z.body, rs); err != nil {
		return nil, err
	}
	// Compress straight into dst after the flag byte; if that does not
	// shrink the body, overwrite it in place with the raw records.
	start := len(dst)
	z.out = append(dst, varlenFlate)
	z.zw.Reset(z)
	if _, err = z.zw.Write(z.body); err == nil {
		err = z.zw.Close()
	}
	if err != nil {
		return nil, err
	}
	if dst = z.out; len(dst)-start-1 < len(z.body) {
		return dst, nil
	}
	dst = append(dst[:start], varlenRaw)
	return append(dst, z.body...), nil
}

// appendRecords appends the wire encoding of every record in rs to dst.
func (v Varlen) appendRecords(dst []byte, rs []Record) ([]byte, error) {
	for _, r := range rs {
		var err error
		if dst, err = v.AppendRecord(dst, r); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBlock implements Codec. Every decoded record's Ext is a
// substring of one string holding the block body, so a block costs one
// string allocation however many records it holds.
func (v Varlen) DecodeBlock(data []byte, nrec int) ([]Record, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: varlen block has no flag byte", ErrCorrupt)
	}
	body := data[1:]
	switch data[0] {
	case varlenRaw:
	case varlenFlate:
		z := inflaters.Get().(*inflater)
		defer z.release()
		var err error
		if body, err = z.inflate(body, v.MaxBlockBytes(nrec)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: varlen block flag 0x%02x", ErrCorrupt, data[0])
	}
	str := string(body)
	rs := make([]Record, 0, nrec)
	off := 0
	for i := 0; i < nrec; i++ {
		n, used, err := uvarintAt(body, off)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d length prefix: %v", ErrCorrupt, i, err)
		}
		if n < 1 || n > MaxVarRecordBytes || off+used+n > len(body) {
			return nil, fmt.Errorf("%w: record %d claims %d bytes with %d remaining",
				ErrCorrupt, i, n, len(body)-off-used)
		}
		r, err := recordFromExt(str[off+used : off+used+n])
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrCorrupt, i, err)
		}
		rs = append(rs, r)
		off += used + n
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d records", ErrCorrupt, len(body)-off, nrec)
	}
	return rs, nil
}

// deflaters and inflaters pool the flate state of the Varlen codec. A
// flate.Writer carries about 1 MB of compressor tables, so building one
// per block would dwarf the block itself; pooling keeps the codec safe
// for concurrent use while each block borrows private state.
var (
	deflaters = sync.Pool{New: func() any {
		z := new(deflater)
		// NewWriter fails only for an invalid level; BestSpeed is valid.
		z.zw, _ = flate.NewWriter(z, flate.BestSpeed)
		return z
	}}
	inflaters = sync.Pool{New: func() any {
		z := new(inflater)
		z.zr = flate.NewReader(&z.src)
		return z
	}}
)

// deflater is one block's compressor: the pooled flate.Writer, the
// record body scratch it compresses, and the destination the compressed
// bytes are appended to (deflater is the writer's io.Writer).
type deflater struct {
	zw   *flate.Writer
	body []byte
	out  []byte
}

// Write appends compressed bytes to the destination block.
func (z *deflater) Write(p []byte) (int, error) {
	z.out = append(z.out, p...)
	return len(p), nil
}

// release returns z to the pool without holding on to the caller's block.
func (z *deflater) release() {
	z.body, z.out = z.body[:0], nil
	deflaters.Put(z)
}

// inflater is one block's decompressor: the pooled flate reader, the
// source it reads, and the scratch buffer it inflates into.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser
	lim io.LimitedReader
	buf bytes.Buffer
}

// inflate decompresses body into the inflater's buffer, which stays
// valid until release. A block can never legitimately exceed limit — its
// own worst-case raw size — so anything larger is corruption, not an
// allocation request.
func (z *inflater) inflate(body []byte, limit int) ([]byte, error) {
	z.src.Reset(body)
	// Reset of a flate reader over a flate.Reader source cannot fail.
	_ = z.zr.(flate.Resetter).Reset(&z.src, nil)
	z.lim = io.LimitedReader{R: z.zr, N: int64(limit) + 1}
	z.buf.Reset()
	_, err := z.buf.ReadFrom(&z.lim)
	if cerr := z.zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%w: inflating varlen block: %v", ErrCorrupt, err)
	}
	if z.buf.Len() > limit {
		return nil, fmt.Errorf("%w: varlen block inflates past its %d-byte bound", ErrCorrupt, limit)
	}
	return z.buf.Bytes(), nil
}

// release returns z to the pool; the next inflate resets all flate state.
func (z *inflater) release() {
	z.src.Reset(nil)
	inflaters.Put(z)
}

// AppendRecord implements Codec.
func (Varlen) AppendRecord(dst []byte, r Record) ([]byte, error) {
	if r.Ext == "" {
		return nil, fmt.Errorf("record: varlen codec needs records built by MakeVar (record %v has no encoding)",
			Record{Key: r.Key, Val: r.Val})
	}
	var pre [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(pre[:], uint64(len(r.Ext)))
	dst = append(dst, pre[:n]...)
	return append(dst, r.Ext...), nil
}

// ReadRecord implements Codec.
func (Varlen) ReadRecord(br *bufio.Reader) (Record, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: record length prefix: %v", ErrCorrupt, err)
	}
	if n < 1 || n > MaxVarRecordBytes {
		return Record{}, fmt.Errorf("%w: record claims %d bytes, max %d", ErrCorrupt, n, MaxVarRecordBytes)
	}
	ext := make([]byte, n)
	if _, err := io.ReadFull(br, ext); err != nil {
		return Record{}, fmt.Errorf("%w: record truncated inside its %d bytes: %v", ErrCorrupt, n, err)
	}
	r, err := recordFromExt(string(ext))
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, nil
}

// recordFromExt rebuilds a Record from its canonical encoding, deriving
// the prefix words from the decoded key — the single source of truth, so
// a record decoded from disk is identical to the MakeVar original.
func recordFromExt(ext string) (Record, error) {
	klen, n, ok := extKeyLen(ext)
	if !ok {
		return Record{}, fmt.Errorf("key length overruns %d-byte encoding", len(ext))
	}
	r := Record{Ext: ext}
	r.Key, r.Val = extPrefixes(ext[n : n+klen])
	return r, nil
}

// uvarintAt decodes a uvarint at data[off:], returning the value and the
// bytes consumed.
func uvarintAt(data []byte, off int) (int, int, error) {
	if off >= len(data) {
		return 0, 0, fmt.Errorf("no bytes at offset %d", off)
	}
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("invalid uvarint at offset %d", off)
	}
	return int(v), n, nil
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}
