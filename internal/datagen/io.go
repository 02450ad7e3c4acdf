package datagen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"spatialcluster/internal/object"
)

// fileMagic identifies the binary map file format of cmd/mapgen.
const fileMagic = 0x53434d50 // "SCMP"

// Write serializes the dataset to w: a fixed header with the generation
// spec followed by length-prefixed object serializations. MBRs are not
// stored; they are recomputed (and re-scaled) on load.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []any{
		uint32(fileMagic),
		uint32(d.Spec.Map),
		uint32(d.Spec.Series),
		uint32(d.Spec.Scale),
		uint64(d.Spec.Seed),
		float64(d.Spec.MBRScale),
		uint64(len(d.Objects)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("datagen: write header: %w", err)
		}
	}
	var buf []byte
	for _, o := range d.Objects {
		buf = object.Append(buf[:0], o)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(buf))); err != nil {
			return fmt.Errorf("datagen: write object length: %w", err)
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("datagen: write object: %w", err)
		}
	}
	return bw.Flush()
}

// ReadFrom deserializes a dataset written by Write.
func ReadFrom(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var magic, mapID, series, scale uint32
	var seed, count uint64
	var mbrScale float64
	for _, v := range []any{&magic, &mapID, &series, &scale, &seed, &mbrScale, &count} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("datagen: read header: %w", err)
		}
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("datagen: bad magic %#x", magic)
	}
	spec := Spec{
		Map:      MapID(mapID),
		Series:   Series(series),
		Scale:    int(scale),
		Seed:     int64(seed),
		MBRScale: mbrScale,
	}.normalized()
	ds := &Dataset{Spec: spec}
	for i := uint64(0); i < count; i++ {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("datagen: read object %d length: %w", i, err)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("datagen: read object %d: %w", i, err)
		}
		o, err := object.Unmarshal(buf)
		if err != nil {
			return nil, fmt.Errorf("datagen: object %d: %w", i, err)
		}
		ds.Objects = append(ds.Objects, o)
		ds.MBRs = append(ds.MBRs, o.Bounds().Scale(spec.MBRScale))
	}
	return ds, nil
}
