package store

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"scikey/internal/hdfs"
)

// Local is the HDFS-backed Store: objects are files under a directory
// prefix of the simulated filesystem, and Put commits through the same
// temp-path + Rename protocol reduce outputs use, so a Get racing a Put
// reads either the old object or the new one. Neither side copies: Put's
// data becomes the file's blocks (hdfs.FileSystem.WriteFile), and Get of an
// object that fits one block returns that block (hdfs.FileSystem.ReadAll).
// Readers are Closed eagerly — the filesystem's pinned-byte accounting
// stays at zero between calls, so a cache built on Local reports truthful
// usage.
type Local struct {
	fs     *hdfs.FileSystem
	prefix string
	seq    atomic.Int64
}

// NewLocal returns a Store over fs rooted at prefix (default "/store").
func NewLocal(fs *hdfs.FileSystem, prefix string) *Local {
	if prefix == "" {
		prefix = "/store"
	}
	return &Local{fs: fs, prefix: strings.TrimSuffix(prefix, "/")}
}

func (l *Local) path(key string) string { return l.prefix + "/" + key }

// Put implements Store. The object lands under a private temp name first
// and is renamed into place; the previous incarnation (if any) is deleted
// just before the rename, the only non-atomic window, and a loser of that
// race retries.
func (l *Local) Put(key string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp-%d", l.path(key), l.seq.Add(1))
	if err := l.fs.WriteFile(tmp, data); err != nil {
		return err
	}
	for {
		if err := l.fs.Delete(l.path(key)); err != nil && !errors.Is(err, hdfs.ErrNotFound) {
			return err
		}
		err := l.fs.Rename(tmp, l.path(key))
		if err == nil {
			return nil
		}
		if !errors.Is(err, hdfs.ErrExists) {
			return err
		}
		// A concurrent Put renamed between our delete and rename; the
		// freshest writer wins, so delete and try again.
	}
}

// Get implements Store.
func (l *Local) Get(key string) ([]byte, error) {
	data, err := l.fs.ReadAll(l.path(key))
	if errors.Is(err, hdfs.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, err
}

// Stat implements Store.
func (l *Local) Stat(key string) (int64, error) {
	n, err := l.fs.Stat(l.path(key))
	if errors.Is(err, hdfs.ErrNotFound) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return n, err
}

// Delete implements Store.
func (l *Local) Delete(key string) error {
	err := l.fs.Delete(l.path(key))
	if errors.Is(err, hdfs.ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return err
}

// List implements Store.
func (l *Local) List(prefix string) ([]string, error) {
	var out []string
	for _, p := range l.fs.List() {
		k, ok := strings.CutPrefix(p, l.prefix+"/")
		if !ok || strings.Contains(k, ".tmp-") {
			continue
		}
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out, nil
}
