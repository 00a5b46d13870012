// Package hdfs simulates the distributed filesystem under SciHadoop: an
// in-memory namespace of block-structured files with round-robin placement
// and replication, enough to drive input splits with locality information
// and to hold job output. Steps 1 and 7 of the paper's data-flow diagram
// (Fig. 1) read and write this store.
package hdfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNotFound reports a missing path.
var ErrNotFound = errors.New("hdfs: file not found")

// ErrExists reports a Create on an existing path.
var ErrExists = errors.New("hdfs: file exists")

// ErrClosed reports a Read on a closed reader.
var ErrClosed = errors.New("hdfs: reader is closed")

// BlockLocation describes one block of a file and the nodes holding it.
type BlockLocation struct {
	Offset int64
	Length int64
	Hosts  []string
}

// FileSystem is an in-memory HDFS namespace. All methods are safe for
// concurrent use.
type FileSystem struct {
	mu          sync.RWMutex
	blockSize   int64
	replication int
	nodes       []string
	files       map[string]*fileEntry
	nextNode    int

	// openReaders / pinnedBytes account for live readers: each Open pins
	// its file's block snapshot (the entry stays reachable even if the
	// path is deleted or renamed over) until Close releases it. Long-lived
	// holders — the segment cache above all — consult these to report
	// truthful byte usage instead of trusting the GC to have collected
	// forgotten snapshots.
	openReaders atomic.Int64
	pinnedBytes atomic.Int64
}

type fileEntry struct {
	blocks [][]byte
	hosts  [][]string
	size   int64
}

// New creates a filesystem over the given datanodes. Replication is capped
// at the node count.
func New(blockSize int64, replication int, nodes []string) *FileSystem {
	if blockSize <= 0 {
		panic("hdfs: block size must be positive")
	}
	if len(nodes) == 0 {
		panic("hdfs: need at least one datanode")
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	return &FileSystem{
		blockSize:   blockSize,
		replication: replication,
		nodes:       append([]string(nil), nodes...),
		files:       make(map[string]*fileEntry),
	}
}

// Create opens a new file for writing. The file becomes visible to readers
// only after Close.
func (fs *FileSystem) Create(path string) (io.WriteCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	fs.files[path] = nil // reserve the name
	return &fileWriter{fs: fs, path: path}, nil
}

type fileWriter struct {
	fs     *FileSystem
	path   string
	entry  fileEntry
	closed bool
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("hdfs: write after close")
	}
	total := len(p)
	for len(p) > 0 {
		if len(w.entry.blocks) == 0 ||
			int64(len(w.entry.blocks[len(w.entry.blocks)-1])) == w.fs.blockSize {
			w.entry.blocks = append(w.entry.blocks, make([]byte, 0, min(int64(len(p)), w.fs.blockSize)))
			w.entry.hosts = append(w.entry.hosts, w.fs.placeBlock())
		}
		last := len(w.entry.blocks) - 1
		b := w.entry.blocks[last]
		n := min(int64(len(p)), w.fs.blockSize-int64(len(b)))
		if need := len(b) + int(n); need > cap(b) {
			// Double, up to the block size: append's quarter steps for a
			// large slice would copy a growing block about three times as
			// often.
			b = append(make([]byte, 0, min(max(2*cap(b), need), int(w.fs.blockSize))), b...)
		}
		w.entry.blocks[last] = append(b, p[:n]...)
		w.entry.size += n
		p = p[n:]
	}
	return total, nil
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	e := w.entry
	w.fs.files[w.path] = &e
	return nil
}

// placeBlock picks replication hosts round-robin. Caller holds no lock
// during writes; placement contention is tolerable, so take the lock here.
func (fs *FileSystem) placeBlock() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	hosts := make([]string, 0, fs.replication)
	for i := 0; i < fs.replication; i++ {
		hosts = append(hosts, fs.nodes[(fs.nextNode+i)%len(fs.nodes)])
	}
	fs.nextNode = (fs.nextNode + 1) % len(fs.nodes)
	return hosts
}

// Open returns a reader over the whole file. The reader pins the file's
// block snapshot until Close; callers that hold readers for a long time
// (cache backends) must Close them so PinnedBytes stays truthful.
func (fs *FileSystem) Open(path string) (io.ReadCloser, error) {
	fs.mu.RLock()
	e, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok || e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	fs.openReaders.Add(1)
	fs.pinnedBytes.Add(e.size)
	return &fileReader{fs: fs, entry: e, size: e.size}, nil
}

// OpenReaders reports how many readers are currently open (Opened but not
// yet Closed).
func (fs *FileSystem) OpenReaders() int64 { return fs.openReaders.Load() }

// PinnedBytes reports the total file bytes pinned by open readers — the
// memory a leaked reader would keep alive.
func (fs *FileSystem) PinnedBytes() int64 { return fs.pinnedBytes.Load() }

// ReadAll returns the whole contents of path, len == cap == the file's
// size. The caller must not write to them: a file of one block comes back
// as that block itself, capacity-capped, and only a file of several blocks
// is concatenated into a new slice. Either way the bytes stay valid after
// the file is deleted or renamed over. The read pins the file's blocks
// exactly as an Open/Close pair does, and releases them before it returns.
func (fs *FileSystem) ReadAll(path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	fr := r.(*fileReader)
	defer fr.Close()
	if blocks := fr.entry.blocks; len(blocks) == 1 {
		b := blocks[0]
		return b[:len(b):len(b)], nil
	}
	out := make([]byte, fr.size)
	n := 0
	for _, b := range fr.entry.blocks {
		n += copy(out[n:], b)
	}
	return out, nil
}

// WriteFile creates path with the given contents and takes ownership of
// data: the file's blocks are data's own bytes, cut at the block size and
// capacity-capped, so nothing is copied, and the caller must not write to
// data afterwards.
func (fs *FileSystem) WriteFile(path string, data []byte) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	fw := w.(*fileWriter)
	for len(data) > 0 {
		n := min(int64(len(data)), fs.blockSize)
		fw.entry.blocks = append(fw.entry.blocks, data[:n:n])
		fw.entry.hosts = append(fw.entry.hosts, fs.placeBlock())
		fw.entry.size += n
		data = data[n:]
	}
	return fw.Close()
}

type fileReader struct {
	fs    *FileSystem
	entry *fileEntry
	size  int64
	block int
	off   int
}

func (r *fileReader) Read(p []byte) (int, error) {
	if r.entry == nil {
		return 0, ErrClosed
	}
	for r.block < len(r.entry.blocks) && r.off == len(r.entry.blocks[r.block]) {
		r.block++
		r.off = 0
	}
	if r.block >= len(r.entry.blocks) {
		return 0, io.EOF
	}
	n := copy(p, r.entry.blocks[r.block][r.off:])
	r.off += n
	return n, nil
}

// WriteTo writes the unread rest of the file to w block by block, so
// io.Copy from a reader stages nothing through a buffer of its own.
func (r *fileReader) WriteTo(w io.Writer) (int64, error) {
	if r.entry == nil {
		return 0, ErrClosed
	}
	var total int64
	for ; r.block < len(r.entry.blocks); r.block, r.off = r.block+1, 0 {
		n, err := w.Write(r.entry.blocks[r.block][r.off:])
		total += int64(n)
		r.off += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close releases the reader's block snapshot so the bytes stop counting as
// pinned (and, if the file was deleted meanwhile, become collectable).
// Closing twice is safe; reads after Close fail with ErrClosed.
func (r *fileReader) Close() error {
	if r.entry == nil {
		return nil
	}
	r.entry = nil
	r.fs.openReaders.Add(-1)
	r.fs.pinnedBytes.Add(-r.size)
	return nil
}

// ReadRange returns n bytes of path starting at offset off — the ranged
// read an input split uses to fetch just its slab.
func (fs *FileSystem) ReadRange(path string, off, n int64) ([]byte, error) {
	fs.mu.RLock()
	e, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok || e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if off < 0 || n < 0 || off+n > e.size {
		return nil, fmt.Errorf("hdfs: range [%d,%d) outside file of %d bytes", off, off+n, e.size)
	}
	out := make([]byte, 0, n)
	blk := int(off / fs.blockSize)
	pos := off % fs.blockSize
	for int64(len(out)) < n {
		b := e.blocks[blk]
		take := min(n-int64(len(out)), int64(len(b))-pos)
		out = append(out, b[pos:pos+take]...)
		blk++
		pos = 0
	}
	return out, nil
}

// Stat returns the size of path.
func (fs *FileSystem) Stat(path string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	e, ok := fs.files[path]
	if !ok || e == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return e.size, nil
}

// BlockLocations lists the blocks of path with their hosts, the locality
// interface map scheduling uses.
func (fs *FileSystem) BlockLocations(path string) ([]BlockLocation, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	e, ok := fs.files[path]
	if !ok || e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]BlockLocation, len(e.blocks))
	var off int64
	for i, b := range e.blocks {
		out[i] = BlockLocation{
			Offset: off,
			Length: int64(len(b)),
			Hosts:  append([]string(nil), e.hosts[i]...),
		}
		off += int64(len(b))
	}
	return out, nil
}

// List returns the paths under the namespace, sorted.
func (fs *FileSystem) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for p, e := range fs.files {
		if e != nil {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Rename atomically moves oldPath to newPath, the commit step of the
// MapReduce output protocol: task attempts write to attempt-private temp
// paths and the winning attempt renames its file into place. Renaming onto
// an existing file fails with ErrExists (HDFS rename does not overwrite).
func (fs *FileSystem) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, ok := fs.files[oldPath]
	if !ok || e == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, oldPath)
	}
	if cur, ok := fs.files[newPath]; ok && cur != nil {
		return fmt.Errorf("%w: %s", ErrExists, newPath)
	}
	fs.files[newPath] = e
	delete(fs.files, oldPath)
	return nil
}

// Delete removes path.
func (fs *FileSystem) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if e, ok := fs.files[path]; !ok || e == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(fs.files, path)
	return nil
}
