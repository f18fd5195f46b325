// Package textio holds what the text-format renderers (formats, prep,
// grid) write with: the one writer they write through, and append
// helpers that render fixed-width record fields byte-identically to the
// fmt verbs they replace.
package textio

import (
	"bufio"
	"bytes"
	"io"
)

// Writer is what a text-format renderer writes into. A record is built
// by appending to AvailableBuffer and passing the result to Write, the
// idiom bufio.Writer and bytes.Buffer document: the bytes land in the
// writer's own storage, and only a record longer than the space left
// allocates.
type Writer interface {
	io.Writer
	io.StringWriter
	AvailableBuffer() []byte
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
