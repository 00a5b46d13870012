// Package store is the blob store behind the query service's shared
// map-output cache: a small put/get object interface with whole-object
// overwrite semantics (Store) and its one implementation over the simulated
// HDFS (Local). The query service encodes a job's published map-phase
// snapshot into one blob per cache key and round-trips it through a Store;
// the blob carries its own CRC, so the store adds no framing of its own.
package store

import "errors"

// ErrNotFound reports a Get/Stat/Delete of a key the store does not hold.
var ErrNotFound = errors.New("store: object not found")

// Store is a flat keyed blob store. Put overwrites atomically with respect
// to Get: a concurrent reader sees either the old object or the new one,
// never a torn mix. Implementations are safe for concurrent use.
//
// No caller writes stored bytes, so an implementation may keep Put's data
// and return its own bytes from Get without copying either (Local does);
// one backed by a disk or a network copies as it must. A caller that needs
// bytes it can write clones them.
type Store interface {
	// Put stores data under key, replacing any existing object. The store
	// takes ownership of data: the caller must not write to it afterwards.
	Put(key string, data []byte) error
	// Get returns the object's bytes, or ErrNotFound. The caller must not
	// write to them; they stay valid after the object is overwritten or
	// deleted.
	Get(key string) ([]byte, error)
	// Stat returns the object's payload size, or ErrNotFound.
	Stat(key string) (int64, error)
	// Delete removes the object; deleting a missing key is ErrNotFound.
	Delete(key string) error
	// List returns the stored keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
}
