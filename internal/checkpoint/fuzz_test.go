package checkpoint

import (
	"bytes"
	"testing"

	"dvr/internal/sealed"
)

// FuzzDecodeCheckpoint drives Decode with hostile bytes: truncations,
// bit flips, version skew, and arbitrary garbage. The contract is that
// Decode returns an error or a structurally valid State — it never
// panics, and it never returns a State whose re-encoding disagrees with
// what was verified (which would be a silently-wrong restore).
func FuzzDecodeCheckpoint(f *testing.F) {
	valid, err := Encode(testState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:footerLen-1])
	f.Add([]byte{})
	f.Add([]byte("\n# sha256:0000000000000000000000000000000000000000000000000000000000000000\n"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/4] ^= 1
	f.Add(flipped)
	// The v3 layout (every field inline), under its own and the previous
	// version, with packed fields cut ragged or swapped for v2's array of
	// way objects.
	v3 := inlineFile(f, testState(), 3)
	f.Add(v3)
	for _, m := range [][2]string{
		{`"version":3`, `"version":2`},
		{`"data":"BwABAgMEBQYHCA=="`, `"data":"BwABAgME"`},
		{`"ways":"AAAAAEAAAAAAAAAACQAAAAAAAAAB"`, `"ways":"AAAAAEAAAAAA"`},
		{`"ways":"AAAAAEAAAAAAAAAACQAAAAAAAAAB"`, `"ways":[{"w":0,"l":64,"u":9}]`},
	} {
		mut := bytes.Replace(v3[:len(v3)-footerLen], []byte(m[0]), []byte(m[1]), 1)
		f.Add(sealed.Seal(mut))
	}
	// v4 sections cut, stretched or padded under a valid seal, and a later
	// version's head.
	for _, data := range damagedSections(f) {
		f.Add(data)
	}
	f.Add(sealed.Seal(bytes.Replace(valid[:len(valid)-footerLen], []byte(`"version":4`), []byte(`"version":5`), 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		if st.Version != FormatVersion && st.Version != inlineVersion {
			t.Fatalf("Decode accepted version %d", st.Version)
		}
		// Anything that decodes must survive a lossless round trip.
		re, err := Encode(st)
		if err != nil {
			t.Fatalf("re-encode of accepted state: %v", err)
		}
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of accepted state: %v", err)
		}
		if st2.Seq() != st.Seq() || st2.Engine != st.Engine {
			t.Fatalf("round trip changed state: seq %d->%d engine %q->%q",
				st.Seq(), st2.Seq(), st.Engine, st2.Engine)
		}
	})
}
