package prep

import (
	"bytes"
	"testing"
)

// FuzzParamFiles feeds arbitrary bytes to the three parameter-file
// readers (GPF, DPF, Vina config), the test-only oracles of the
// writers' round trips: each must return a value or an error, never
// panic. Seeds are the round-trip files and malformed inputs of
// prep_test.go.
func FuzzParamFiles(f *testing.F) {
	g := testGPF(f)
	d := DefaultDPF("0E6.pdbqt", "2HHN.maps.fld", 99)
	c := DefaultVinaConfig(&g, "0E6.pdbqt", 7)
	var buf bytes.Buffer
	for _, write := range []func() error{
		func() error { return WriteGPF(&buf, &g) },
		func() error { return WriteDPF(&buf, &d) },
		func() error { return WriteVinaConfig(&buf, &c) },
	} {
		buf.Reset()
		if err := write(); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
	for _, s := range []string{
		"npts 2 2\n", "spacing x\nnpts 2 2 2\nreceptor r\n",
		"ga_pop_size x\n", "seed 1\n",
		"center_x = nope\nreceptor = r\nligand = l\n", "center_x = 1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if g, err := ParseGPF(bytes.NewReader(b), "fuzz.gpf"); err == nil && g == nil {
			t.Fatal("nil GPF without an error")
		}
		if d, err := ParseDPF(bytes.NewReader(b), "fuzz.dpf"); err == nil && d == nil {
			t.Fatal("nil DPF without an error")
		}
		if c, err := ParseVinaConfig(bytes.NewReader(b), "fuzz.conf"); err == nil && c == nil {
			t.Fatal("nil Vina config without an error")
		}
	})
}
