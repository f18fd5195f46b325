package spec

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the SciCumulus XML reader: it must
// return a spec or an error, never panic, and a spec it returns writes
// back out. Seeds are the specifications of spec_test.go.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		paperXML,
		"not xml",
		`<SciCumulus><SciCumulusWorkflow tag="W">
	<SciCumulusActivity tag="x" operator="NOPE"/>
	</SciCumulusWorkflow></SciCumulus>`,
		`<SciCumulus><SciCumulusWorkflow tag="W" expdir="/e/">
<SciCumulusActivity tag="m" activation="./m %K%"/>
<SciCumulusActivity tag="r" operator="REDUCE" groupkey="K" activation="./r %K%" depends="m"/>
</SciCumulusWorkflow></SciCumulus>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("parsed spec does not write back: %v", err)
		}
	})
}
