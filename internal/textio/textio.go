// Package textio holds the one writer the text-format renderers
// (formats, prep, grid) write through.
package textio

import (
	"bufio"
	"bytes"
	"io"
)

// Writer is what a text-format renderer writes into.
type Writer interface {
	io.Writer
	io.StringWriter
	Flush() error
}

// NewWriter returns w itself when it is an in-memory *bytes.Buffer —
// the workflow renders every staged file into one, and a 4 KB buffer
// in front of it would only copy each byte twice — and a bufio.Writer
// over w otherwise. Either way the bytes written are the same, and the
// renderer must Flush before it returns.
func NewWriter(w io.Writer) Writer {
	if b, ok := w.(*bytes.Buffer); ok {
		return memWriter{b}
	}
	return bufio.NewWriter(w)
}

// memWriter is a *bytes.Buffer with nothing to flush.
type memWriter struct{ *bytes.Buffer }

func (memWriter) Flush() error { return nil }
