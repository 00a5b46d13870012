package ifile

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// readOutcome drains r and returns its records and how the read ended:
// "eof", "checksum", or "other" for any other error. It fails the test if
// r does not end within limit calls.
func readOutcome(t *testing.T, r *Reader, limit int) ([]rec, string) {
	t.Helper()
	var recs []rec
	for range limit {
		k, v, err := r.Next()
		switch {
		case err == nil:
			recs = append(recs, rec{bytes.Clone(k), bytes.Clone(v)})
		case err == io.EOF:
			return recs, "eof"
		case errors.Is(err, ErrChecksum):
			return recs, "checksum"
		default:
			return recs, "other"
		}
	}
	t.Fatal("reader did not terminate")
	return nil, ""
}

// walkEnd reads data in place to its end and returns how the read ends: nil
// at io.EOF, otherwise the error Next returned.
func walkEnd(data []byte) error {
	var r Reader
	r.ResetBytes(data)
	for {
		if _, _, err := r.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// checkVerify fails the test unless Verify(data) ends the way reading data
// in place does: nil against nil, the same sentinel (ErrChecksum,
// io.ErrUnexpectedEOF), or an error with the same text.
func checkVerify(t *testing.T, data []byte) error {
	t.Helper()
	got, want := Verify(data), walkEnd(data)
	same := got == nil && want == nil
	switch {
	case got == nil || want == nil:
	case errors.Is(want, ErrChecksum), errors.Is(want, io.ErrUnexpectedEOF):
		same = errors.Is(got, want)
	default:
		same = got.Error() == want.Error()
	}
	if !same {
		t.Fatalf("Verify of %d bytes = %v, reading them = %v", len(data), got, want)
	}
	return got
}

// FuzzReader feeds arbitrary bytes to the record reader, once in place
// (ResetBytes) and once streamed a byte at a time through the read-ahead
// block: each read must terminate, never panic or loop, and the two must
// return the same records and end the same way. Verify must end the way
// the in-place read does.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append([]byte("key"), []byte("value"))
	w.Append(bytes.Repeat([]byte{'k'}, 130), bytes.Repeat([]byte{'v'}, 200))
	w.Close()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-1])
	f.Add(append(bytes.Clone(buf.Bytes()), "after the trailer"...))
	f.Add([]byte{0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0x05, 0, 0, 0, 0})
	f.Add([]byte{0xfe, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkVerify(t, data)
		var inPlace Reader
		inPlace.ResetBytes(data)
		got, gotEnd := readOutcome(t, &inPlace, len(data)+2)
		want, wantEnd := readOutcome(t, NewReader(iotest.OneByteReader(bytes.NewReader(data))), len(data)+2)
		if gotEnd != wantEnd {
			t.Fatalf("in place the read ends with %s, streamed with %s", gotEnd, wantEnd)
		}
		if len(got) != len(want) {
			t.Fatalf("in place %d records, streamed %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
				t.Fatalf("record %d differs", i)
			}
		}
	})
}
