package snap

import (
	"encoding/binary"
	"testing"
)

// le32 appends v little-endian, for building hostile streams by hand.
func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// FuzzReader drives the whole Reader surface with an op script over
// arbitrary input: no sequence of reads on any input may panic, and
// the sticky error must keep every later accessor inert.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte("\x04\x00\x00\x00abcd"))
	f.Add([]byte{8, 8, 8}, le32(le32(nil, 16), 1<<31-1))
	w := NewWriter()
	w.U32(Magic)
	w.Version(3)
	w.String("component")
	w.Blob(func(w *Writer) { w.U64(42) })
	w.Bytes32(make([]byte, 100))
	f.Add([]byte{3, 7, 9, 10, 11, 0}, w.Bytes())
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		errSeen := false
		for _, op := range ops {
			switch op % 11 {
			case 0:
				r.U8()
			case 1:
				r.Bool()
			case 2:
				r.U16()
			case 3:
				r.U32()
			case 4:
				r.U64()
			case 5:
				r.I64()
			case 6:
				r.Int()
			case 7:
				r.Version("fuzz", 3)
			case 8:
				r.Bytes32()
			case 9:
				_ = r.String()
			case 10:
				sub := r.Blob()
				sub.U64()
				sub.Close("sub")
			}
			if errSeen && r.Err() == nil {
				t.Fatal("sticky error cleared itself")
			}
			if r.Err() != nil {
				errSeen = true
				if r.Remaining() != 0 {
					t.Fatalf("Remaining() = %d after error, want 0", r.Remaining())
				}
			}
		}
		r.Close("fuzz")
	})
}
