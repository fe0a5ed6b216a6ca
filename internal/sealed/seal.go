// Package sealed is the one place dvrd decides how a durable file is
// named, published, verified, and disposed of when it cannot be trusted:
// checkpoints, ledger journals, the result and interval-trace spills and
// forensics dumps are codecs over it (DESIGN.md, "Durable artifacts").
package sealed

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// Sealed-payload integrity: every durable artifact carries a digest footer —
//
//	<payload>\n# sha256:<hex of the payload bytes>\n
//
// verified on every read. The footer lives at a fixed trailing position, so
// verification never scans the payload for markers (safe for any payload
// bytes) and trailing garbage is corruption, not something to skip over.
// Write-path damage — torn writes, bit rot, truncation, a failing disk —
// therefore degrades to "artifact unusable" (the caller recomputes), never
// to a silently wrong restore.
const footerPrefix = "# sha256:"

// footerLen is the exact size of the digest footer: newline, prefix, hex
// digest, newline.
const footerLen = 1 + len(footerPrefix) + 2*sha256.Size + 1

// ErrCorrupt marks data that failed integrity verification: truncated,
// bit-flipped, or otherwise not what was written. A Store quarantines
// such files; the caller recomputes.
var ErrCorrupt = errors.New("sealed: corrupt")

// ErrSkew marks an intact artifact written by another format version —
// expected across upgrades, so a Store removes the file instead of
// quarantining it. Codecs wrap it in their own version sentinel.
var ErrSkew = errors.New("unsupported format version")

// Seal appends the digest footer to payload, returning the bytes to write
// to disk.
func Seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(payload)+footerLen)
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	buf = append(buf, footerPrefix...)
	buf = append(buf, hex.EncodeToString(sum[:])...)
	buf = append(buf, '\n')
	return buf
}

// Unseal verifies the digest footer and returns the payload. Any failure
// wraps ErrCorrupt.
func Unseal(data []byte) ([]byte, error) {
	if len(data) < footerLen {
		return nil, fmt.Errorf("%w: truncated (%d bytes, footer alone is %d)", ErrCorrupt, len(data), footerLen)
	}
	foot := data[len(data)-footerLen:]
	if foot[0] != '\n' || string(foot[1:1+len(footerPrefix)]) != footerPrefix || foot[footerLen-1] != '\n' {
		return nil, fmt.Errorf("%w: missing digest footer", ErrCorrupt)
	}
	payload := data[:len(data)-footerLen]
	sum := sha256.Sum256(payload)
	if string(foot[1+len(footerPrefix):footerLen-1]) != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrCorrupt)
	}
	return payload, nil
}
