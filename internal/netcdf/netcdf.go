// Package netcdf implements a subset of the NetCDF classic file format
// (CDF-1), the container SciHadoop's array queries actually read: the
// original SciHadoop paper processes NetCDF data, and this paper's
// "windspeed1" examples are NetCDF-style variables over named dimensions.
//
// Supported: fixed-size (non-record) dimensions, NC_INT and NC_FLOAT
// variables, global and per-variable text/numeric attributes. Unsupported:
// the unlimited record dimension and byte/short/double payloads — none of
// which the experiments need. Files written here follow the on-disk spec
// (big-endian, 4-byte alignment, CDF-1 32-bit offsets) so external NetCDF
// tooling can read them.
package netcdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Type tags from the classic format (the ones this subset reads and writes).
const (
	ncChar  = 2
	ncInt   = 4
	ncFloat = 5

	tagDimension = 0x0a
	tagVariable  = 0x0b
	tagAttribute = 0x0c
)

// Dim is a named fixed-size dimension.
type Dim struct {
	Name string
	Len  int
}

// Attr is an attribute: Text set for NC_CHAR attributes, Values for NC_INT.
type Attr struct {
	Name   string
	Text   string
	Values []int32
}

// Var is one variable over a list of dimensions (by index into File.Dims).
type Var struct {
	Name  string
	Dims  []int
	Attrs []Attr
	// Float selects NC_FLOAT storage; otherwise NC_INT.
	Float bool
	// Int32s holds the row-major payload; float payloads are stored as
	// IEEE bits in the same slice.
	Int32s []int32
	// begin is the on-disk payload offset (filled when read or written).
	begin int64
}

// Shape returns the variable's per-dimension lengths.
func (v *Var) Shape(f *File) []int {
	out := make([]int, len(v.Dims))
	for i, d := range v.Dims {
		out[i] = f.Dims[d].Len
	}
	return out
}

// NumCells returns the number of elements.
func (v *Var) NumCells(f *File) int64 {
	n := int64(1)
	for _, s := range v.Shape(f) {
		n *= int64(s)
	}
	return n
}

// Begin returns the byte offset of the variable's payload within the file.
func (v *Var) Begin() int64 { return v.begin }

// File is an in-memory NetCDF dataset.
type File struct {
	Dims  []Dim
	Attrs []Attr
	Vars  []*Var
}

// VarByName finds a variable.
func (f *File) VarByName(name string) (*Var, bool) {
	for _, v := range f.Vars {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

func pad4(n int) int { return (4 - n%4) % 4 }

type writer struct {
	w   io.Writer
	n   int64
	err error
}

func (w *writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
	w.n += int64(len(p))
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.write(b[:])
}

func (w *writer) name(s string) {
	w.u32(uint32(len(s)))
	w.write([]byte(s))
	w.write(make([]byte, pad4(len(s))))
}

func (w *writer) attrs(attrs []Attr) {
	if len(attrs) == 0 {
		w.u32(0) // ABSENT tag
		w.u32(0)
		return
	}
	w.u32(tagAttribute)
	w.u32(uint32(len(attrs)))
	for _, a := range attrs {
		w.name(a.Name)
		if a.Text != "" || len(a.Values) == 0 {
			w.u32(ncChar)
			w.u32(uint32(len(a.Text)))
			w.write([]byte(a.Text))
			w.write(make([]byte, pad4(len(a.Text))))
			continue
		}
		w.u32(ncInt)
		w.u32(uint32(len(a.Values)))
		for _, v := range a.Values {
			w.u32(uint32(v))
		}
	}
}

// headerSize computes the byte size of the header so variable begin
// offsets can be assigned before writing.
func (f *File) headerSize() int64 {
	n := int64(4 + 4) // magic + numrecs
	sizeAttrs := func(attrs []Attr) int64 {
		s := int64(8)
		for _, a := range attrs {
			s += int64(4 + len(a.Name) + pad4(len(a.Name)))
			s += 8 // type + nelems
			if a.Text != "" || len(a.Values) == 0 {
				s += int64(len(a.Text) + pad4(len(a.Text)))
			} else {
				s += int64(4 * len(a.Values))
			}
		}
		return s
	}
	n += 8 // dim tag + count
	for _, d := range f.Dims {
		n += int64(4+len(d.Name)+pad4(len(d.Name))) + 4
	}
	n += sizeAttrs(f.Attrs)
	n += 8 // var tag + count
	for _, v := range f.Vars {
		n += int64(4 + len(v.Name) + pad4(len(v.Name)))
		n += int64(4 + 4*len(v.Dims))
		n += sizeAttrs(v.Attrs)
		n += 4 + 4 + 4 // nc_type + vsize + begin (CDF-1)
	}
	return n
}

// WriteTo serializes the file in CDF-1 layout.
func (f *File) WriteTo(out io.Writer) (int64, error) {
	// Assign begin offsets.
	off := f.headerSize()
	for _, v := range f.Vars {
		v.begin = off
		size := v.NumCells(f) * 4
		off += size + int64(pad4(int(size%4)))
	}
	if off > math.MaxUint32 {
		return 0, errors.New("netcdf: file exceeds CDF-1 32-bit offsets")
	}

	w := &writer{w: out}
	w.write([]byte{'C', 'D', 'F', 1})
	w.u32(0) // numrecs: no record dimension
	if len(f.Dims) == 0 {
		w.u32(0)
		w.u32(0)
	} else {
		w.u32(tagDimension)
		w.u32(uint32(len(f.Dims)))
		for _, d := range f.Dims {
			w.name(d.Name)
			w.u32(uint32(d.Len))
		}
	}
	w.attrs(f.Attrs)
	if len(f.Vars) == 0 {
		w.u32(0)
		w.u32(0)
	} else {
		w.u32(tagVariable)
		w.u32(uint32(len(f.Vars)))
		for _, v := range f.Vars {
			w.name(v.Name)
			w.u32(uint32(len(v.Dims)))
			for _, d := range v.Dims {
				w.u32(uint32(d))
			}
			w.attrs(v.Attrs)
			if v.Float {
				w.u32(ncFloat)
			} else {
				w.u32(ncInt)
			}
			size := v.NumCells(f) * 4
			w.u32(uint32(size))
			w.u32(uint32(v.begin))
		}
	}
	if w.err == nil && w.n != f.headerSize() {
		return w.n, fmt.Errorf("netcdf: header accounting bug: wrote %d, computed %d", w.n, f.headerSize())
	}
	for _, v := range f.Vars {
		if int64(len(v.Int32s)) != v.NumCells(f) {
			return w.n, fmt.Errorf("netcdf: variable %s has %d cells, shape needs %d",
				v.Name, len(v.Int32s), v.NumCells(f))
		}
		for _, x := range v.Int32s {
			w.u32(uint32(x))
		}
	}
	return w.n, w.err
}

type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) name() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.pos+n+pad4(n) > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n + pad4(n)
	return s
}

// Minimum encoded sizes of the header's list elements: a dimension (name
// length, length), an attribute (name length, type, count), a variable (name
// length, dimension count, absent attribute list, type, vsize, begin), and a
// dimension reference or an NC_INT value.
const minDim, minAttr, minVar, minWord = 8, 12, 28, 4

// bounded returns the element count n, or fails the read when n is negative
// or the bytes that remain cannot hold n elements of at least minSize bytes
// each, before anything is allocated for them: a header's counts are claims,
// not sizes.
func (r *reader) bounded(what string, n, minSize int) int {
	if r.err == nil && (n < 0 || n > (len(r.b)-r.pos)/minSize) {
		r.err = fmt.Errorf("netcdf: implausible %s count %d with %d header bytes left", what, n, len(r.b)-r.pos)
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *reader) attrs() []Attr {
	tag := r.u32()
	count := int(r.u32())
	if tag == 0 {
		if count != 0 {
			r.err = errors.New("netcdf: malformed ABSENT attribute list")
		}
		return nil
	}
	if tag != tagAttribute {
		r.err = fmt.Errorf("netcdf: expected attribute tag, got %#x", tag)
		return nil
	}
	count = r.bounded("attribute", count, minAttr)
	out := make([]Attr, 0, count)
	for i := 0; i < count && r.err == nil; i++ {
		a := Attr{Name: r.name()}
		typ := r.u32()
		n := int(r.u32())
		switch typ {
		case ncChar:
			if n = r.bounded("character", n, 1); r.pos+n+pad4(n) > len(r.b) {
				r.err = io.ErrUnexpectedEOF
				return nil
			}
			a.Text = string(r.b[r.pos : r.pos+n])
			r.pos += n + pad4(n)
		case ncInt:
			n = r.bounded("value", n, minWord)
			for j := 0; j < n; j++ {
				a.Values = append(a.Values, int32(r.u32()))
			}
		default:
			r.err = fmt.Errorf("netcdf: unsupported attribute type %d", typ)
		}
		out = append(out, a)
	}
	return out
}

// Parse decodes a CDF-1 byte image, header and payloads.
func Parse(b []byte) (*File, error) {
	f, err := ParseHeader(b)
	if err != nil {
		return nil, err
	}
	for _, v := range f.Vars {
		// The cell count is a product of dimension lengths: it is held to
		// the cells the file has left after begin as it is formed, so it
		// cannot overflow to a count that fits.
		n, limit := int64(1), (int64(len(b))-v.begin)/4
		for _, s := range v.Shape(f) {
			if n > limit/int64(s) {
				n = limit + 1
				break
			}
			n *= int64(s)
		}
		if v.begin < 0 || n > limit {
			return nil, fmt.Errorf("netcdf: variable %s payload at %d does not fit the file", v.Name, v.begin)
		}
		v.Int32s = make([]int32, n)
		for i := int64(0); i < n; i++ {
			v.Int32s[i] = int32(binary.BigEndian.Uint32(b[v.begin+i*4:]))
		}
	}
	return f, nil
}

// ParseHeader decodes only the metadata, leaving payloads unread — what an
// input format does before handing slab offsets to map tasks. b need only
// contain the header bytes.
func ParseHeader(b []byte) (*File, error) {
	r := &reader{b: b}
	if len(b) < 8 || b[0] != 'C' || b[1] != 'D' || b[2] != 'F' {
		return nil, errors.New("netcdf: bad magic")
	}
	if b[3] != 1 {
		return nil, fmt.Errorf("netcdf: unsupported CDF version %d", b[3])
	}
	r.pos = 4
	if numrecs := r.u32(); numrecs != 0 {
		return nil, errors.New("netcdf: record dimensions not supported")
	}
	f := &File{}
	tag := r.u32()
	count := int(r.u32())
	if tag == tagDimension {
		count = r.bounded("dimension", count, minDim)
		for i := 0; i < count && r.err == nil; i++ {
			d := Dim{Name: r.name(), Len: int(r.u32())}
			if d.Len == 0 {
				return nil, errors.New("netcdf: record dimension (length 0) not supported")
			}
			f.Dims = append(f.Dims, d)
		}
	} else if tag != 0 || count != 0 {
		return nil, fmt.Errorf("netcdf: expected dimension list, got tag %#x", tag)
	}
	f.Attrs = r.attrs()
	tag = r.u32()
	count = int(r.u32())
	if tag == tagVariable {
		count = r.bounded("variable", count, minVar)
		for i := 0; i < count && r.err == nil; i++ {
			v := &Var{Name: r.name()}
			nd := r.bounded("dimension reference", int(r.u32()), minWord)
			for j := 0; j < nd; j++ {
				id := int(r.u32())
				if id < 0 || id >= len(f.Dims) {
					return nil, fmt.Errorf("netcdf: variable %s references dimension %d", v.Name, id)
				}
				v.Dims = append(v.Dims, id)
			}
			v.Attrs = r.attrs()
			typ := r.u32()
			switch typ {
			case ncInt:
			case ncFloat:
				v.Float = true
			default:
				return nil, fmt.Errorf("netcdf: unsupported variable type %d", typ)
			}
			r.u32() // vsize (recomputable)
			v.begin = int64(r.u32())
			f.Vars = append(f.Vars, v)
		}
	} else if tag != 0 || count != 0 {
		return nil, fmt.Errorf("netcdf: expected variable list, got tag %#x", tag)
	}
	if r.err != nil {
		return nil, r.err
	}
	return f, nil
}
