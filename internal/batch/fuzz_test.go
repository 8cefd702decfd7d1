package batch

import (
	"bytes"
	"strings"
	"testing"
)

// realCheckpoint encodes the checkpoint record a batch run writes for
// job j after stepping its model the given number of cycles.
func realCheckpoint(tb testing.TB, j Job, cycles int) []byte {
	tb.Helper()
	in, err := newInstance(j)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < cycles && !in.Done(); i++ {
		if err := in.StepCycle(); err != nil {
			tb.Fatal(err)
		}
	}
	blob, err := in.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := EncodeCheckpoint(j, in.Cycle(), blob)
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// TestDecodeCheckpointRefusesTrailingBytes: a valid record with one
// byte appended is refused, as the other store-record decoders refuse
// bytes after their record.
func TestDecodeCheckpointRefusesTrailingBytes(t *testing.T) {
	rec := realCheckpoint(t, Job{Name: "t", Arch: "arm", Workload: "gsm/dec", N: 10}, 500)
	if _, err := DecodeCheckpoint(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(append(rec, 0)); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("a record with a trailing byte decoded: %v", err)
	}
}

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint-record
// decoder, which reads records from the on-disk checkpoint store:
// decoding never panics, and a record that decodes re-encodes byte for
// byte. Seeds are real records of both models, plus each truncated and
// with a byte appended.
func FuzzCheckpoint(f *testing.F) {
	for _, j := range []Job{
		{Name: "fz-arm", Arch: "arm", Workload: "gsm/dec", N: 10},
		{Name: "fz-ppc", Arch: "ppc", Workload: "spec/crc", N: 10},
	} {
		rec := realCheckpoint(f, j, 300)
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
		f.Add(append(append([]byte{}, rec...), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		again, err := EncodeCheckpoint(c.Job, c.Cycle, c.Blob)
		if err != nil {
			t.Fatalf("a decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("a decoded record re-encodes to %d bytes, not its own %d", len(again), len(data))
		}
	})
}
