package main

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"slices"

	"srmsort"
)

// newRand returns the generator for one input stream of a seed; stream
// separates the inputs one workload draws (main input, warm-up input,
// each sortd job).
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// genFixed returns n records with uniform random 64-bit keys and values.
func genFixed(r *rand.Rand, n int) []srmsort.Record {
	out := make([]srmsort.Record, n)
	for i := range out {
		out[i] = srmsort.Record{Key: r.Uint64(), Val: r.Uint64()}
	}
	return out
}

// genVar returns n variable-length records: keys of 3–18 bytes over a
// four-letter alphabet, so long shared prefixes are common and the
// 8-byte prefix word often ties, and payloads of 0–23 random bytes.
func genVar(r *rand.Rand, n int) []srmsort.VarRecord {
	const alphabet = "ACGT"
	out := make([]srmsort.VarRecord, n)
	for i := range out {
		key := make([]byte, 3+r.IntN(16))
		for j := range key {
			key[j] = alphabet[r.IntN(len(alphabet))]
		}
		payload := make([]byte, r.IntN(24))
		for j := range payload {
			payload[j] = byte(r.Uint32())
		}
		out[i] = srmsort.VarRecord{Key: key, Payload: payload}
	}
	return out
}

// sortedFixed is the reference order of fixed16 records: key, then value.
func sortedFixed(in []srmsort.Record) []srmsort.Record {
	out := slices.Clone(in)
	slices.SortFunc(out, func(a, b srmsort.Record) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	})
	return out
}

// sortedVar is the reference order of VarRecords: key bytes, then
// payload bytes.
func sortedVar(in []srmsort.VarRecord) []srmsort.VarRecord {
	out := slices.Clone(in)
	slices.SortFunc(out, func(a, b srmsort.VarRecord) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Payload, b.Payload)
	})
	return out
}

func equalVar(a, b []srmsort.VarRecord) bool {
	return slices.EqualFunc(a, b, func(x, y srmsort.VarRecord) bool {
		return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Payload, y.Payload)
	})
}

// wire encodes fixed16 records in the library's and sortd's wire format.
func wire(rs []srmsort.Record) []byte {
	var buf bytes.Buffer
	buf.Grow(len(rs) * srmsort.RecordWireSize)
	_ = srmsort.WriteRecords(&buf, rs) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}
