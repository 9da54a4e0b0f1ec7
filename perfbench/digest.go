package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// reportDigest is the SHA-256 of a sequence of rendered reports. Each
// part is length-prefixed, so moving bytes between parts changes it.
func reportDigest(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCheck pins the first digest it sees and reports whether later
// ones match it: a repetition whose reports changed by one byte is a
// failure.
type digestCheck struct{ want string }

func (d *digestCheck) observe(got string) bool {
	if d.want == "" {
		d.want = got
	}
	return got == d.want
}
