package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// Kind classifies one logged mutation.
type Kind byte

// The mutation kinds a record can carry.
const (
	KindInsert Kind = iota + 1
	KindDelete
	KindUpdate
	KindRecluster
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if names := [...]string{KindInsert: "insert", KindDelete: "delete", KindUpdate: "update",
		KindRecluster: "recluster"}; k != 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Record is one logged mutation. Inserts and updates carry the object and
// its spatial key; deletes carry the victim ID; recluster records carry the
// policy name (resolved through recluster.ByName at replay, so maintenance
// replays deterministically). The LSN is assigned by the log on append.
type Record struct {
	LSN    uint64
	Kind   Kind
	Obj    *object.Object // insert, update
	Key    geom.Rect      // insert, update
	ID     object.ID      // delete
	Policy string         // recluster
}

// recordPrefix is the fixed prefix of every record payload: LSN (8) +
// kind (1).
const recordPrefix = 9

// keySize is the serialized spatial key: four float64 coordinates.
const keySize = 32

// encode appends the record's serialization — the payload the framing layer
// wraps — to dst.
func (r *Record) encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = append(dst, byte(r.Kind))
	switch r.Kind {
	case KindInsert, KindUpdate:
		for _, v := range [4]float64{r.Key.MinX, r.Key.MinY, r.Key.MaxX, r.Key.MaxY} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return object.Append(dst, r.Obj)
	case KindDelete:
		return binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	case KindRecluster:
		return append(dst, r.Policy...)
	}
	panic(fmt.Sprintf("wal: encoding record of kind %v", r.Kind))
}

// decodeRecord deserializes a payload produced by encode. The payload has
// already passed its CRC, so a decode failure is a format error, not a torn
// write. The record shares no memory with the payload.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < recordPrefix {
		return Record{}, fmt.Errorf("record payload of %d bytes shorter than the %d-byte prefix",
			len(payload), recordPrefix)
	}
	r := Record{
		LSN:  binary.LittleEndian.Uint64(payload),
		Kind: Kind(payload[8]),
	}
	body := payload[recordPrefix:]
	switch r.Kind {
	case KindInsert, KindUpdate:
		if len(body) < keySize {
			return Record{}, fmt.Errorf("record %d: %v body of %d bytes shorter than the %d-byte key",
				r.LSN, r.Kind, len(body), keySize)
		}
		r.Key = geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(body)),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(body[8:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(body[16:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(body[24:])),
		}
		obj, err := object.Unmarshal(body[keySize:])
		if err != nil {
			return Record{}, fmt.Errorf("record %d: %w", r.LSN, err)
		}
		r.Obj = obj
	case KindDelete:
		if len(body) != 8 {
			return Record{}, fmt.Errorf("record %d: delete body is %d bytes, want 8", r.LSN, len(body))
		}
		r.ID = object.ID(binary.LittleEndian.Uint64(body))
	case KindRecluster:
		r.Policy = string(body)
	default:
		return Record{}, fmt.Errorf("record %d: unknown kind %d", r.LSN, byte(r.Kind))
	}
	return r, nil
}
