package grid

import (
	"bytes"
	"testing"

	"repro/internal/chem"
)

// FuzzParseMap feeds arbitrary bytes to the .map reader, which reads
// files from the shared file system: it must return maps or an error,
// never panic. Seeds are TestMapFileRoundTrip's affinity and
// electrostatic maps and TestParseMapErrors' malformed inputs.
func FuzzParseMap(f *testing.F) {
	spec := Spec{Center: chem.V(0.5, -1.25, 2), NPts: [3]int{3, 3, 3}, Spacing: 2}
	maps, err := Generate(preparedReceptor(f, "1PIP"), spec, []chem.AtomType{chem.TypeC})
	if err != nil {
		f.Fatal(err)
	}
	for _, which := range []string{"C", "e"} {
		var buf bytes.Buffer
		if err := maps.WriteMap(&buf, which); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SPACING x\n"))
	f.Add([]byte("SPACING 1\nNELEMENTS 2 2 2\nCENTER 0 0 0\n1.0\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := ParseMap(bytes.NewReader(b), "C", "fuzz.map"); err == nil && m == nil {
			t.Fatal("nil maps without an error")
		}
	})
}
