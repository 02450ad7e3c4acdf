// Package object defines the spatial objects stored by the organization
// models (internal/store): an identifier, an exact geometry (polyline or
// polygon from internal/geom), and a binary serialization whose length
// determines how many disk pages the object occupies. Objects may carry
// padding bytes so that workload generators (internal/datagen) can control
// the exact serialized size distribution — the paper's test series A, B and
// C differ only in average object size (Table 1).
//
// The serialization (Append/Unmarshal) is the on-disk format everywhere an
// exact representation is stored: the secondary organization's sequential
// file, the primary organization's data pages and overflow file, and the
// cluster organization's cluster units.
package object
