package wire

import (
	"sync/atomic"

	"openhpcxx/internal/xdr"
)

// Header strings — object ids, method names, envelope kinds — come from
// a small, slowly changing set, yet every decoded frame used to copy
// each of them into a fresh string. internTab caches recent ones: a
// direct-mapped table of published strings, so a hit costs a hash and a
// compare and allocates nothing, and a miss costs what decoding always
// did plus one slot store. A collision just replaces the slot, so the
// table's memory is bounded whatever the traffic.
var internTab [internSlots]atomic.Pointer[string]

const (
	internSlots  = 1024 // power of two
	maxInternLen = 128  // longer strings are decoded plainly
)

// internString decodes an XDR string, returning a cached copy when the
// same bytes were decoded recently. The result never aliases the
// decoder's input.
func internString(d *xdr.Decoder) (string, error) {
	b, err := d.OpaqueView()
	if err != nil {
		return "", err
	}
	if len(b) == 0 {
		return "", nil
	}
	if len(b) > maxInternLen {
		return string(b), nil
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	slot := &internTab[h&(internSlots-1)]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p, nil
	}
	s := string(b)
	slot.Store(&s)
	return s, nil
}
