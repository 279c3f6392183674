package jsonindent_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cafa/internal/jsonindent"
)

// indentSeeds cover the byte classes the one-pass scan must get
// right: escaped quotes and backslashes next to a closing quote, the
// HTML escapes json.Marshal emits (\u003c \u003e \u0026), U+2028,
// nested empty containers, deep nesting and top-level scalars.
var indentSeeds = []string{
	`{"a":"say \"hi\"","b":"c:\\","c":"\\\"","d":"\\\\"}`,
	`["<a href='x'>&amp;</a>","\u2028\u2029",":,{}[]"]`,
	`{"e":{},"f":[],"g":[{},[],{"h":[]}],"i":[[[]]]}`,
	`{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":{"":[1]}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}`,
	`[1,-2.5e+10,true,false,null,"x"]`,
	`1`, `"top"`, `null`, `true`, `{}`, `[]`, `""`,
}

// FuzzIndentMatchesEncoding is the differential oracle: for any value
// encoding/json can round-trip, Append over the json.Marshal bytes
// equals json.Indent(…, "", "  "), and Encode equals a json.Encoder
// with SetIndent("", "  ").
func FuzzIndentMatchesEncoding(f *testing.F) {
	for _, s := range indentSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		src, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, src, "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := jsonindent.Append(nil, src); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("Append(%q)\n got %q\nwant %q", src, got, want.Bytes())
		}
		// Append must extend dst, not overwrite it.
		if got := jsonindent.Append([]byte("x"), src); !bytes.Equal(got[1:], want.Bytes()) || got[0] != 'x' {
			t.Fatalf("Append with a prefix = %q", got)
		}
		var enc, one bytes.Buffer
		e := json.NewEncoder(&enc)
		e.SetIndent("", "  ")
		if err := e.Encode(v); err != nil {
			t.Fatal(err)
		}
		if err := jsonindent.Encode(&one, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), enc.Bytes()) {
			t.Fatalf("Encode\n got %q\nwant %q", one.Bytes(), enc.Bytes())
		}
	})
}

// countingWriter records how many Write calls reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestEncodeStructSingleWrite(t *testing.T) {
	type inner struct {
		Name string   `json:"name"`
		Tags []string `json:"tags,omitempty"`
		Nil  []int    `json:"nil"`
		Emp  []int    `json:"emp"`
		Map  map[string]int
	}
	v := struct {
		A []inner `json:"a"`
		B *inner  `json:"b"`
	}{A: []inner{{Name: `a"b\c<d>&`, Tags: []string{"x", "y"}, Emp: []int{}, Map: map[string]int{"k": 1}}, {}}}
	var w countingWriter
	if err := jsonindent.Encode(&w, v); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.String(); got != string(want)+"\n" {
		t.Errorf("Encode\n got %s\nwant %s", got, want)
	}
	if w.writes != 1 {
		t.Errorf("Encode made %d writes, want 1", w.writes)
	}
	if err := jsonindent.Encode(&w, func() {}); err == nil || !strings.Contains(err.Error(), "unsupported type") {
		t.Errorf("Encode of a func = %v, want the json.Marshal error", err)
	}
}
