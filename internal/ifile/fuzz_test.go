package ifile

import (
	"bytes"
	"errors"
	"io"
	"testing"
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

// FuzzReader feeds arbitrary bytes to the in-place record reader and to
// Verify: the read must terminate, never panic or loop, and Verify must end
// the way it does. Where the read ends at a clean EOF the input is a valid
// stream, and the records it returned, written again, must make a stream
// that reads back to the same records.
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
		got, end := readOutcome(t, NewReader(data), len(data)+2)
		if end != "eof" {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, r := range got {
			if err := w.Append(r.k, r.v); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, end := readOutcome(t, NewReader(out.Bytes()), out.Len()+2)
		if end != "eof" || len(again) != len(got) {
			t.Fatalf("rewritten: %d records ending %s, want %d ending eof", len(again), end, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i].k, again[i].k) || !bytes.Equal(got[i].v, again[i].v) {
				t.Fatalf("record %d differs once rewritten", i)
			}
		}
	})
}
