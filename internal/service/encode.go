package service

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"

	"dvr/internal/service/api"
)

// Every JSON body dvrd writes is encoding/json's two-space indented form
// followed by a newline. A cache hit is written from bytes stored with the
// cache entry (cachedResult.body) instead of being encoded again, and a
// synchronous batch splices its cells' stored bytes into an envelope
// written by hand, so both must stay byte-identical to what encodeJSON
// makes of the same value: TestSpliceMatchesEncoder holds them to it.

// cellPrefix is the indentation of a batch cell: an element of the
// top-level object's "cells" array sits two levels deep.
const cellPrefix = "    "

// encodeJSON writes v the way every dvrd response body is encoded.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// encodeBatch encodes a synchronous batch's response: the
// api.BatchResponse of these cells and counts, which has no job id and is
// never a deduplicated answer (TestBatchEnvelopeCoversResponse holds the
// fields written here to the struct's). bodies[i], when present and
// non-nil, is the stored encoding of cells[i] as a /v1/sim response and is
// copied line by line behind cellPrefix; any other cell (freshly
// simulated, routed, or failed) is encoded here.
func encodeBatch(cells []api.SimResponse, bodies [][]byte, hits, failed int) ([]byte, error) {
	size := 128
	for _, b := range bodies {
		size += len(b) + len(b)/4 // the stored lines, each behind cellPrefix
	}
	dst := append(make([]byte, 0, size), "{\n"...)
	// "cells" is omitempty; Validate refuses an empty batch, but the
	// envelope follows the struct tag rather than rely on that.
	if len(cells) > 0 {
		dst = append(dst, "  \"cells\": [\n"...)
		for i := range cells {
			if i > 0 {
				dst = append(dst, ",\n"...)
			}
			if i < len(bodies) && bodies[i] != nil {
				dst = appendPrefixed(dst, bytes.TrimSuffix(bodies[i], []byte("\n")))
				continue
			}
			fresh, err := json.MarshalIndent(&cells[i], cellPrefix, "  ")
			if err != nil {
				return nil, err
			}
			// MarshalIndent prefixes every line but the first.
			dst = append(append(dst, cellPrefix...), fresh...)
		}
		dst = append(dst, "\n  ],\n"...)
	}
	dst = strconv.AppendInt(append(dst, "  \"cache_hits\": "...), int64(hits), 10)
	if failed != 0 {
		dst = strconv.AppendInt(append(dst, ",\n  \"failed\": "...), int64(failed), 10)
	}
	return append(dst, "\n}\n"...), nil
}

// appendPrefixed appends body with cellPrefix in front of each of its lines.
func appendPrefixed(dst, body []byte) []byte {
	for len(body) > 0 {
		line := body
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			line = body[:nl+1]
		}
		dst = append(append(dst, cellPrefix...), line...)
		body = body[len(line):]
	}
	return dst
}
