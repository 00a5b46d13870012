package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"scikey/internal/hdfs"
)

func backends(t *testing.T) map[string]Store {
	t.Helper()
	fs := hdfs.New(1<<20, 2, []string{"node0", "node1", "node2"})
	return map[string]Store{"local": NewLocal(fs, "/store")}
}

func TestRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("scihadoop segment bytes "), 10_000)
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("seg/a", payload); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := s.Get("seg/a")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("round-trip mismatch: got %d bytes want %d", len(got), len(payload))
			}
			n, err := s.Stat("seg/a")
			if err != nil || n != int64(len(payload)) {
				t.Fatalf("Stat = %d, %v; want %d", n, err, len(payload))
			}

			// Overwrite replaces wholesale.
			if err := s.Put("seg/a", []byte("v2")); err != nil {
				t.Fatalf("overwrite Put: %v", err)
			}
			got, err = s.Get("seg/a")
			if err != nil || string(got) != "v2" {
				t.Fatalf("after overwrite Get = %q, %v; want \"v2\"", got, err)
			}
		})
	}
}

func TestNotFound(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing = %v; want ErrNotFound", err)
			}
			if _, err := s.Stat("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Stat missing = %v; want ErrNotFound", err)
			}
			if err := s.Delete("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete missing = %v; want ErrNotFound", err)
			}
			if err := s.Put("k", []byte("x")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Delete("k"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after Delete = %v; want ErrNotFound", err)
			}
		})
	}
}

func TestListPrefix(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"cache/b", "cache/a", "other/z", "cache/c"} {
				if err := s.Put(k, []byte(k)); err != nil {
					t.Fatalf("Put %s: %v", k, err)
				}
			}
			got, err := s.List("cache/")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			want := []string{"cache/a", "cache/b", "cache/c"}
			if len(got) != len(want) {
				t.Fatalf("List = %v; want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("List = %v; want %v", got, want)
				}
			}
		})
	}
}

// TestLocalDoesNotPinReaders pins the satellite bugfix to its consumer: the
// Local backend must leave no open readers (and no pinned bytes) behind,
// which only holds now that fileReader.Close actually releases.
func TestLocalDoesNotPinReaders(t *testing.T) {
	fs := hdfs.New(1<<20, 2, []string{"node0", "node1"})
	s := NewLocal(fs, "/store")
	payload := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := s.Put(key, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, err := s.Get(key); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	if n := fs.OpenReaders(); n != 0 {
		t.Fatalf("OpenReaders = %d after store traffic; want 0", n)
	}
	if n := fs.PinnedBytes(); n != 0 {
		t.Fatalf("PinnedBytes = %d after store traffic; want 0", n)
	}
}
