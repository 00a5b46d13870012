package hdfs

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func testFS() *FileSystem {
	return New(1024, 2, []string{"node0", "node1", "node2"})
}

func TestWriteRead(t *testing.T) {
	fs := testFS()
	data := bytes.Repeat([]byte("scihadoop "), 500) // 5000 bytes, ~5 blocks
	if err := fs.WriteFile("/data/grid.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("/data/grid.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("readback mismatch")
	}
	size, err := fs.Stat("/data/grid.bin")
	if err != nil || size != int64(len(data)) {
		t.Errorf("Stat = %d, %v", size, err)
	}
}

func TestCreateVisibility(t *testing.T) {
	fs := testFS()
	w, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("abc"))
	// Not visible before Close.
	if _, err := fs.Open("/f"); !errors.Is(err, ErrNotFound) {
		t.Errorf("pre-close Open err = %v, want ErrNotFound", err)
	}
	w.Close()
	if _, err := fs.Open("/f"); err != nil {
		t.Errorf("post-close Open: %v", err)
	}
	// Duplicate create fails.
	if _, err := fs.Create("/f"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create err = %v", err)
	}
}

func TestBlockLocations(t *testing.T) {
	fs := testFS()
	data := make([]byte, 2500) // 3 blocks of 1024
	fs.WriteFile("/blk", data)
	locs, err := fs.BlockLocations("/blk")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("got %d blocks, want 3", len(locs))
	}
	var off int64
	for i, l := range locs {
		if l.Offset != off {
			t.Errorf("block %d offset %d, want %d", i, l.Offset, off)
		}
		if len(l.Hosts) != 2 {
			t.Errorf("block %d has %d replicas, want 2", i, len(l.Hosts))
		}
		if l.Hosts[0] == l.Hosts[1] {
			t.Errorf("block %d replicas on the same node", i)
		}
		off += l.Length
	}
	if locs[2].Length != 2500-2048 {
		t.Errorf("tail block length %d", locs[2].Length)
	}
	// Round-robin placement spreads first replicas.
	if locs[0].Hosts[0] == locs[1].Hosts[0] && locs[1].Hosts[0] == locs[2].Hosts[0] {
		t.Error("placement not rotating")
	}
}

func TestListDelete(t *testing.T) {
	fs := testFS()
	fs.WriteFile("/b", nil)
	fs.WriteFile("/a", []byte("x"))
	got := fs.List()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Errorf("List = %v", got)
	}
	if err := fs.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	if _, err := fs.Open("/a"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted file still readable")
	}
}

func TestEmptyFile(t *testing.T) {
	fs := testFS()
	fs.WriteFile("/empty", nil)
	data, err := fs.ReadAll("/empty")
	if err != nil || len(data) != 0 {
		t.Errorf("empty file: %v, %d bytes", err, len(data))
	}
	locs, _ := fs.BlockLocations("/empty")
	if len(locs) != 0 {
		t.Errorf("empty file has %d blocks", len(locs))
	}
}

func TestChunkedReads(t *testing.T) {
	fs := testFS()
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 10_000)
	rng.Read(data)
	fs.WriteFile("/r", data)
	r, _ := fs.Open("/r")
	var back []byte
	buf := make([]byte, 333)
	for {
		n, err := r.Read(buf)
		back = append(back, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(back, data) {
		t.Error("chunked read mismatch")
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := testFS()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := string(rune('a' + i))
			payload := bytes.Repeat([]byte{byte(i)}, 3000)
			if err := fs.WriteFile(path, payload); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if len(fs.List()) != 16 {
		t.Errorf("expected 16 files, got %d", len(fs.List()))
	}
	for i := 0; i < 16; i++ {
		data, err := fs.ReadAll(string(rune('a' + i)))
		if err != nil || len(data) != 3000 || data[0] != byte(i) {
			t.Errorf("file %d corrupted", i)
		}
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := New(64, 10, []string{"only"})
	fs.WriteFile("/x", make([]byte, 100))
	locs, _ := fs.BlockLocations("/x")
	for _, l := range locs {
		if len(l.Hosts) != 1 {
			t.Errorf("replicas = %d, want 1", len(l.Hosts))
		}
	}
}

func TestReadRange(t *testing.T) {
	fs := testFS()
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	fs.WriteFile("/rr", data)
	cases := []struct{ off, n int64 }{
		{0, 0}, {0, 5000}, {1, 1}, {1000, 3000}, {1023, 2}, {4096, 904},
	}
	for _, c := range cases {
		got, err := fs.ReadRange("/rr", c.off, c.n)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", c.off, c.n, err)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.n]) {
			t.Errorf("ReadRange(%d,%d) mismatch", c.off, c.n)
		}
	}
	if _, err := fs.ReadRange("/rr", 4999, 2); err == nil {
		t.Error("out-of-bounds range must fail")
	}
	if _, err := fs.ReadRange("/missing", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Error("missing file must report ErrNotFound")
	}
}

func TestRename(t *testing.T) {
	fs := New(16, 1, []string{"n0"})
	if err := fs.WriteFile("/tmp/part-0", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/tmp/part-0", "/out/part-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/tmp/part-0"); err == nil {
		t.Error("old path still readable after rename")
	}
	data, err := fs.ReadAll("/out/part-0")
	if err != nil || string(data) != "payload" {
		t.Errorf("renamed file = %q, %v", data, err)
	}
	// Rename of a missing source fails.
	if err := fs.Rename("/nope", "/out/x"); err == nil {
		t.Error("rename of missing file succeeded")
	}
	// Rename onto an existing file fails (HDFS does not overwrite).
	fs.WriteFile("/tmp/other", []byte("x"))
	if err := fs.Rename("/tmp/other", "/out/part-0"); err == nil {
		t.Error("rename onto existing file succeeded")
	}
	// A reserved-but-unmaterialized destination may be replaced: temp names
	// from failed attempts must not block commits.
	fs.Create("/out/reserved")
	if err := fs.Rename("/tmp/other", "/out/reserved"); err != nil {
		t.Errorf("rename onto reserved name failed: %v", err)
	}
}

// TestReaderCloseReleasesSnapshot is the reader-leak regression test: every
// Open pins its file's block snapshot, Close must release it — a no-op Close
// let long-lived cache readers pin whole-file copies until GC, making any
// byte accounting built on the filesystem untruthful.
func TestReaderCloseReleasesSnapshot(t *testing.T) {
	fs := testFS()
	payload := bytes.Repeat([]byte("x"), 5000) // spans several 1 KiB blocks
	if err := fs.WriteFile("/data/a", payload); err != nil {
		t.Fatal(err)
	}

	var readers []io.ReadCloser
	const n = 4
	for i := 0; i < n; i++ {
		r, err := fs.Open("/data/a")
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, r)
	}
	if got := fs.OpenReaders(); got != n {
		t.Fatalf("OpenReaders = %d, want %d", got, n)
	}
	if got, want := fs.PinnedBytes(), int64(n*len(payload)); got != want {
		t.Fatalf("PinnedBytes = %d, want %d", got, want)
	}

	// Reading to EOF does not release anything; only Close does.
	if _, err := io.ReadAll(readers[0]); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.PinnedBytes(), int64(n*len(payload)); got != want {
		t.Fatalf("PinnedBytes after ReadAll = %d, want %d", got, want)
	}

	for _, r := range readers {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.OpenReaders(); got != 0 {
		t.Errorf("OpenReaders after Close = %d, want 0", got)
	}
	if got := fs.PinnedBytes(); got != 0 {
		t.Errorf("PinnedBytes after Close = %d, want 0", got)
	}

	// Double Close stays balanced; a closed reader refuses to read.
	if err := readers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.OpenReaders(); got != 0 {
		t.Errorf("OpenReaders after double Close = %d, want 0", got)
	}
	if _, err := readers[0].Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close = %v, want ErrClosed", err)
	}

	// A reader opened before Delete keeps its snapshot until Close — the
	// accounting names exactly the bytes such a holdout keeps alive.
	r, err := fs.Open("/data/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/data/a"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after delete = %d bytes, %v", len(got), err)
	}
	if fs.PinnedBytes() != int64(len(payload)) {
		t.Errorf("PinnedBytes with post-delete holdout = %d, want %d", fs.PinnedBytes(), len(payload))
	}
	r.Close()
	if fs.PinnedBytes() != 0 {
		t.Errorf("PinnedBytes after holdout Close = %d, want 0", fs.PinnedBytes())
	}
}

// TestReadAllExactSize: ReadAll hands back the contents at their exact
// size — len and cap both equal the file's size, so an append by the
// caller reallocates — for an empty file, a one-byte file, a file of
// exactly one block and one that spans many blocks, written whole and
// written in small pieces (which leaves the last block room to grow). Each
// read releases its pin, and so does a failed one.
func TestReadAllExactSize(t *testing.T) {
	fs := testFS()
	rng := rand.New(rand.NewSource(1))
	for i, size := range []int{0, 1, 1024, 1025, 5000, 8192, 0, 1, 1000, 1024, 1025, 5000} {
		data := make([]byte, size)
		rng.Read(data)
		path := "/data/exact"
		if i < 6 {
			if err := fs.WriteFile(path, data); err != nil {
				t.Fatal(err)
			}
		} else {
			w, err := fs.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			for p := data; len(p) > 0; p = p[min(7, len(p)):] {
				if _, err := w.Write(p[:min(7, len(p))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := fs.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := fs.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != n || int64(cap(got)) != n {
			t.Errorf("size %d: ReadAll len %d cap %d, want both %d", size, len(got), cap(got), n)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("size %d: ReadAll returned different bytes", size)
		}
		if r, p := fs.OpenReaders(), fs.PinnedBytes(); r != 0 || p != 0 {
			t.Errorf("size %d: after ReadAll OpenReaders %d PinnedBytes %d, want 0 and 0", size, r, p)
		}
		if err := fs.Delete(path); err != nil {
			t.Fatal(err)
		}
	}

	// Error paths: a missing file, and a file whose writer is not closed yet.
	w, err := fs.Create("/data/open")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("unpublished")); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/data/missing", "/data/open"} {
		if _, err := fs.ReadAll(path); !errors.Is(err, ErrNotFound) {
			t.Errorf("ReadAll(%s) = %v, want ErrNotFound", path, err)
		}
		if r, p := fs.OpenReaders(), fs.PinnedBytes(); r != 0 || p != 0 {
			t.Errorf("after failed ReadAll(%s): OpenReaders %d PinnedBytes %d, want 0 and 0", path, r, p)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteGrowsBlocksByDoubling: a file written in small pieces grows its
// last block by doubling, capped at the block size, so 1 MiB in 4 KiB
// writes reallocates about log2(256) times per block, not the ~25 of
// append's quarter steps. What is read back is what was written.
func TestWriteGrowsBlocksByDoubling(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	for _, blockSize := range []int64{64 << 20, 256 << 10, 300 << 10} {
		fs := New(blockSize, 1, []string{"node0"})
		write := func() {
			fs.Delete("/out") // the last run's file, if any
			w, err := fs.Create("/out")
			if err != nil {
				t.Fatal(err)
			}
			for p := data; len(p) > 0; p = p[4096:] {
				if _, err := w.Write(p[:4096]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		blocks := (int64(len(data)) + blockSize - 1) / blockSize
		// Per block: its first piece and its hosts, then one doubling per
		// power of two up to the block's size; plus the writer, the block
		// and host lists, and the closed entry.
		doublings := bits.Len64(uint64(min(blockSize, int64(len(data)))/4096 - 1))
		budget := float64(blocks*int64(2+doublings) + 8)
		if allocs := testing.AllocsPerRun(5, write); allocs > budget {
			t.Errorf("block size %d: %.0f allocations writing 1 MiB in 4 KiB pieces, budget %.0f", blockSize, allocs, budget)
		}
		got, err := fs.ReadAll("/out")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("block size %d: read back differs from what was written", blockSize)
		}
	}
}

// TestWriteFileAdoptsData: WriteFile keeps the caller's bytes as the file's
// blocks — each block a capacity-capped slice of data at its offset, no
// copy — and what is read back equals what was written; ReadAll of a
// one-block file is that block itself with len == cap == size, and of a
// multi-block file a concatenation. Neither side allocates the file's bytes
// again, and both stay valid after the file is deleted.
func TestWriteFileAdoptsData(t *testing.T) {
	fs := testFS()
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{1, 1000, 1024, 1025, 4096, 5000} {
		data := make([]byte, size, size+100) // slack the file must not reach
		rng.Read(data)
		path := "/data/adopt"
		if err := fs.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		e := fs.files[path]
		for i, b := range e.blocks {
			off := i * int(fs.blockSize)
			if &b[0] != &data[off] || len(b) != min(size-off, int(fs.blockSize)) || cap(b) != len(b) {
				t.Errorf("size %d: block %d (len %d cap %d) is not data[%d:] capped at the block size", size, i, len(b), cap(b), off)
			}
		}
		got, err := fs.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size || cap(got) != size || !bytes.Equal(got, data) {
			t.Errorf("size %d: ReadAll len %d cap %d, equal %v", size, len(got), cap(got), bytes.Equal(got, data))
		}
		if oneBlock := size <= int(fs.blockSize); oneBlock != (&got[0] == &data[0]) {
			t.Errorf("size %d: ReadAll aliases the written bytes %v, want %v", size, !oneBlock, oneBlock)
		}
		if err := fs.Delete(path); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("size %d: bytes read changed when the file was deleted", size)
		}
	}

	big := make([]byte, 1<<20)
	fs = New(1<<20, 1, []string{"node0"})
	write := func() {
		fs.Delete("/big")
		if err := fs.WriteFile("/big", big); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if _, err := fs.ReadAll("/big"); err != nil {
			t.Fatal(err)
		}
	}
	for name, fn := range map[string]func(){"WriteFile": write, "ReadAll": read} {
		var before, after runtime.MemStats
		write()
		runtime.ReadMemStats(&before)
		for range 10 {
			fn()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 4<<10 {
			t.Errorf("%s of a one-block 1 MiB file allocates %d bytes", name, per)
		}
	}
}
