package framing

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// header is the test schema: the caller's header declares blob sizes in
// whatever shape its protocol uses; here it is a plain list.
type header struct {
	Sizes []int  `json:"sizes"`
	Note  string `json:"note,omitempty"`
}

func decode(body []byte, size int64) (header, [][]byte, error) {
	r := NewReader(bytes.NewReader(body), size)
	var h header
	if err := r.Header(&h); err != nil {
		return h, nil, err
	}
	blobs, err := r.Blobs(h.Sizes)
	return h, blobs, err
}

func TestRoundTrip(t *testing.T) {
	blobs := [][]byte{[]byte("first\nblob"), {}, bytes.Repeat([]byte{0, 0xff}, 3*readStep/2)}
	h := header{Note: "line\nbreaks stay escaped"}
	for _, b := range blobs {
		h.Sizes = append(h.Sizes, len(b))
	}
	body, err := NewBody(h, blobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := body.WriteTo(&buf); err != nil || n != body.Len() || int64(buf.Len()) != n {
		t.Fatalf("WriteTo = %d, %v; Len %d, wrote %d", n, err, body.Len(), buf.Len())
	}
	for _, size := range []int64{body.Len(), -1} {
		got, gotBlobs, err := decode(buf.Bytes(), size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got.Note != h.Note || len(gotBlobs) != len(blobs) {
			t.Fatalf("size %d: header %+v, %d blobs", size, got, len(gotBlobs))
		}
		for i := range blobs {
			if !bytes.Equal(gotBlobs[i], blobs[i]) || gotBlobs[i] == nil {
				t.Fatalf("size %d: blob %d differs", size, i)
			}
		}
	}
}

// TestPlainJSON: a body that declares no blob bytes is just JSON, with or
// without the newline, so hand-written requests stay valid.
func TestPlainJSON(t *testing.T) {
	for _, body := range []string{`{"sizes":[]}`, "{\"sizes\":[]}\n", "{\n  \"sizes\": [0]\n}", `{"sizes":[0,0]}` + "\n"} {
		h, blobs, err := decode([]byte(body), int64(len(body)))
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if len(blobs) != len(h.Sizes) {
			t.Fatalf("%q: %d blobs for %d sizes", body, len(blobs), len(h.Sizes))
		}
	}
}

// TestMalformed covers each class of bad body the decoder must reject,
// with and without a Content-Length to check against.
func TestMalformed(t *testing.T) {
	huge := strconv.Itoa(1 << 62)
	cases := map[string]string{
		"negative size":       "{\"sizes\":[-1]}\n",
		"sum overflows":       `{"sizes":[` + huge + `,` + huge + `]}` + "\nxx",
		"declared past end":   "{\"sizes\":[10]}\nshort",
		"huge declaration":    `{"sizes":[` + huge + `]}` + "\nabc",
		"truncated blob":      "{\"sizes\":[3,4]}\nabcde",
		"trailing bytes":      "{\"sizes\":[3]}\nabcd",
		"trailing after json": "{\"sizes\":[]}\n\n",
		"missing newline":     `{"sizes":[3]}abc`,
		"no bytes at all":     `{"sizes":[3]}`,
		"space for newline":   `{"sizes":[1]} x`,
		"garbled header":      "{\"sizes\":[1}\nx",
		"empty body":          "",
	}
	for name, body := range cases {
		for _, size := range []int64{int64(len(body)), -1} {
			if _, _, err := decode([]byte(body), size); err == nil {
				t.Errorf("%s (size %d): accepted", name, size)
			}
		}
	}
}

// TestContentLengthMismatch: a declaration that disagrees with the body's
// Content-Length is refused without reading the blobs.
func TestContentLengthMismatch(t *testing.T) {
	body := "{\"sizes\":[4]}\nabcd"
	if _, _, err := decode([]byte(body), int64(len(body))+100); err == nil || !strings.Contains(err.Error(), "carries") {
		t.Fatalf("err = %v, want a length mismatch", err)
	}
}

// TestBoundedAllocation: a header may declare any size; the decoder's
// buffers grow only with bytes that actually arrive.
func TestBoundedAllocation(t *testing.T) {
	body := []byte(`{"sizes":[` + strconv.Itoa(1<<40) + `]}` + "\n" + strings.Repeat("x", 100))
	for _, size := range []int64{int64(len(body)), -1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := decode(body, size); err == nil {
			t.Fatal("accepted a 1 TiB declaration")
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 2*readStep {
			t.Fatalf("size %d: allocated %d bytes for a %d-byte body", size, n, len(body))
		}
	}
	n := 5*readStep + 7
	blob, err := readBlob(bytes.NewReader(make([]byte, n)), n)
	if err != nil || len(blob) != n || cap(blob) > 2*n {
		t.Fatalf("readBlob: len %d cap %d err %v", len(blob), cap(blob), err)
	}
}

// TestHTTP carries a body both ways over a real connection: as a request
// (with GetBody, so the transport can resend it) and as a response.
func TestHTTP(t *testing.T) {
	blobs := [][]byte{[]byte("png bytes"), []byte("more")}
	body, err := NewBody(header{Sizes: []int{9, 4}}, blobs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, got, err := decode(mustRead(t, req.Body), req.ContentLength)
		if err != nil || string(got[0]) != "png bytes" || req.Header.Get("Content-Type") != contentType {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		body.Respond(w)
	}))
	defer srv.Close()
	req, err := body.NewRequest(context.Background(), http.MethodPost, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if req.ContentLength != body.Len() || req.GetBody == nil {
		t.Fatalf("request length %d, GetBody %v", req.ContentLength, req.GetBody != nil)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != body.Len() {
		t.Fatalf("status %d, length %d", resp.StatusCode, resp.ContentLength)
	}
	r := NewReader(resp.Body, resp.ContentLength)
	var h header
	if err := r.Header(&h); err != nil {
		t.Fatal(err)
	}
	got, err := r.Blobs(h.Sizes)
	if err != nil || string(got[1]) != "more" {
		t.Fatalf("response blobs %q, %v", got, err)
	}
}

func mustRead(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Error(err)
	}
	return b
}

// FuzzFramedBody: decoding arbitrary bytes never panics or allocates ahead
// of its input, and whatever it accepts is exactly header, newline (absent
// only when nothing follows) and the declared blobs, which re-encode to a
// body that decodes to the same blobs. testdata/fuzz/FuzzFramedBody holds a
// seed for each rejection class.
func FuzzFramedBody(f *testing.F) {
	f.Add([]byte("{\"sizes\":[3,0,2]}\nabcde"), true)
	f.Add([]byte(`{"sizes":[]}`), false)
	f.Fuzz(func(t *testing.T, body []byte, knownLength bool) {
		size := int64(-1)
		if knownLength {
			size = int64(len(body))
		}
		h, blobs, err := decode(body, size)
		if err != nil {
			return
		}
		if len(blobs) != len(h.Sizes) {
			t.Fatalf("%d blobs for %d sizes", len(blobs), len(h.Sizes))
		}
		var tail []byte
		for i, b := range blobs {
			if len(b) != h.Sizes[i] {
				t.Fatalf("blob %d has %d bytes, declared %d", i, len(b), h.Sizes[i])
			}
			tail = append(tail, b...)
		}
		if !bytes.HasSuffix(body, tail) {
			t.Fatal("blobs are not the body's tail")
		}
		if len(tail) > 0 && body[len(body)-len(tail)-1] != '\n' {
			t.Fatal("blobs not preceded by the header newline")
		}
		again, err := NewBody(h, blobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := again.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		_, blobs2, err := decode(buf.Bytes(), again.Len())
		if err != nil {
			t.Fatalf("re-encoded body rejected: %v", err)
		}
		for i := range blobs {
			if !bytes.Equal(blobs[i], blobs2[i]) {
				t.Fatalf("blob %d changed on re-encode", i)
			}
		}
	})
}
