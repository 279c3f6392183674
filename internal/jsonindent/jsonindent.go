// Package jsonindent pretty-prints json.Marshal output in one pass.
//
// json.Indent (and a json.Encoder with SetIndent) re-runs the full
// JSON scanner state machine over every byte of the compact encoding,
// string contents included. Marshal output needs none of that: it has
// no insignificant whitespace, so only the six structural bytes
// { [ ] } , : outside strings change the layout. Append copies string
// runs in bulk (a string ends at the first quote not preceded by an
// odd run of backslashes) and reacts only to those six bytes. The
// output is byte-identical to json.Indent(dst, src, "", "  "); the
// differential fuzz target FuzzIndentMatchesEncoding holds it to that.
package jsonindent

import (
	"bytes"
	"encoding/json"
	"io"
)

// indent is a newline followed by enough two-space levels for any
// depth the evidence and report schemas reach; deeper levels loop.
const indent = "\n                                                                "

// Append appends src, compact JSON as json.Marshal emits it, to dst
// indented with two spaces per level and no prefix. Empty objects and
// arrays stay compact ({} and []), as with json.Indent. src must be
// valid compact JSON; whitespace outside strings is copied verbatim.
func Append(dst, src []byte) []byte {
	depth := 0
	start := 0 // first byte of src not yet copied to dst
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			i = closingQuote(src, i+1)
		case '{', '[':
			// '{'+2 is '}' and '['+2 is ']'.
			if i+1 < len(src) && src[i+1] == c+2 {
				i++
				continue
			}
			depth++
			dst = newline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case '}', ']':
			depth--
			dst = newline(append(dst, src[start:i]...), depth)
			start = i
		case ',':
			dst = newline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case ':':
			dst = append(append(dst, src[start:i+1]...), ' ')
			start = i + 1
		}
	}
	return append(dst, src[start:]...)
}

// closingQuote returns the index of the quote that closes the string
// whose contents start at src[i], or len(src)-1 if it is unterminated.
func closingQuote(src []byte, i int) int {
	for {
		k := bytes.IndexByte(src[i:], '"')
		if k < 0 {
			return len(src) - 1
		}
		i += k
		// The opening quote stops the backward walk.
		n := 0
		for src[i-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return i
		}
		i++
	}
}

// newline appends a newline and depth levels of indentation.
func newline(dst []byte, depth int) []byte {
	n := 1 + 2*max(depth, 0)
	if n <= len(indent) {
		return append(dst, indent[:n]...)
	}
	dst = append(dst, '\n')
	for n--; n > 0; {
		k := min(n, len(indent)-1)
		dst = append(dst, indent[1:1+k]...)
		n -= k
	}
	return dst
}

// Encode writes v as indented JSON followed by a newline — the bytes
// a json.Encoder with SetIndent("", "  ") writes — in a single Write.
func Encode(w io.Writer, v any) error {
	src, err := json.Marshal(v)
	if err != nil {
		return err
	}
	out := Append(make([]byte, 0, 2*len(src)+1), src)
	_, err = w.Write(append(out, '\n'))
	return err
}
