package textio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestNewWriterSameBytes renders one text both ways: through a
// bufio.Writer over any other writer, which sees it after Flush, and
// straight into a *bytes.Buffer, which holds every byte before Flush.
func TestNewWriterSameBytes(t *testing.T) {
	render := func(w Writer) {
		for i := 0; i < 500; i++ {
			fmt.Fprintf(w, "ATOM %5d %8.3f\n", i, float64(i)/7)
			w.WriteString("REMARK\n")
		}
	}
	var sb strings.Builder
	bw := NewWriter(&sb)
	render(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mem := NewWriter(&buf)
	render(mem)
	if buf.String() != sb.String() {
		t.Error("a *bytes.Buffer does not hold the whole rendering before Flush")
	}
	if err := mem.Flush(); err != nil || buf.String() != sb.String() {
		t.Errorf("Flush on a *bytes.Buffer: %v, or it changed the bytes", err)
	}
	if n := testing.AllocsPerRun(50, func() { NewWriter(&buf).Flush() }); n != 0 {
		t.Errorf("NewWriter over a *bytes.Buffer allocates %v times, want 0", n)
	}
}
