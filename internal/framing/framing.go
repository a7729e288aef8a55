// Package framing carries raw binary attachments next to a JSON header in
// one HTTP body, so multi-megabyte payloads (camera frames, plate images)
// never pass through a JSON string or base64. A framed body is
//
//	<JSON header>\n<blob 0><blob 1>...<blob n-1>
//
// The header is one JSON value followed by a newline. The blobs follow back
// to back, in an order the header's schema fixes, each exactly as long as
// the header declares. A body that declares no blob bytes is plain JSON,
// with the trailing newline optional, so hand-written JSON requests (curl,
// docs) remain valid framed bodies.
//
// Declared sizes are untrusted: Reader rejects negative or overflowing
// sizes, a declaration the body's Content-Length contradicts, a header not
// followed by its newline, truncated blobs and trailing bytes, and it never
// allocates more than a bounded step ahead of the bytes that have arrived.
package framing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
)

// contentType labels framed bodies on the wire.
const contentType = "application/x-framed-json"

// readStep bounds how far a blob buffer may grow ahead of the bytes read
// into it: a blob up to this size is allocated once, a larger one grows
// geometrically as its bytes arrive.
const readStep = 1 << 20

// Body is an encoded framed body. Its blobs are referenced, not copied, so
// the caller must not modify them while the body is in use.
type Body struct {
	head  []byte // the JSON header and its newline
	blobs [][]byte
	n     int64
}

// NewBody encodes header and references blobs, which follow it in order.
func NewBody(header any, blobs [][]byte) (*Body, error) {
	head, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("framing: encode header: %w", err)
	}
	b := &Body{head: append(head, '\n'), blobs: blobs}
	b.n = int64(len(b.head))
	for _, blob := range blobs {
		b.n += int64(len(blob))
	}
	return b, nil
}

// Len is the body's total length in bytes.
func (b *Body) Len() int64 { return b.n }

// WriteTo writes the body to w without copying the blobs.
func (b *Body) WriteTo(w io.Writer) (int64, error) {
	m, err := w.Write(b.head)
	n := int64(m)
	for _, blob := range b.blobs {
		if err != nil {
			break
		}
		m, err = w.Write(blob)
		n += int64(m)
	}
	return n, err
}

func (b *Body) reader() io.Reader {
	rs := make([]io.Reader, 0, 1+len(b.blobs))
	rs = append(rs, bytes.NewReader(b.head))
	for _, blob := range b.blobs {
		rs = append(rs, bytes.NewReader(blob))
	}
	return io.MultiReader(rs...)
}

// NewRequest returns a request carrying the body with its Content-Length
// set. The body is rewindable, so the transport may resend it.
func (b *Body) NewRequest(ctx context.Context, method, url string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, b.reader())
	if err != nil {
		return nil, err
	}
	req.ContentLength = b.n
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(b.reader()), nil }
	req.Header.Set("Content-Type", contentType)
	return req, nil
}

// Respond writes the body as a 200 response with its Content-Length set.
func (b *Body) Respond(w http.ResponseWriter) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.FormatInt(b.n, 10))
	// A failed write means the client has gone; the short body tells it so.
	_, _ = b.WriteTo(w)
}

// Reader decodes one framed body: first Header, then Blobs.
type Reader struct {
	dec  *json.Decoder
	src  io.Reader
	size int64
}

// NewReader returns a Reader for the body r whose declared total length is
// size (an HTTP Content-Length), or -1 when unknown.
func NewReader(r io.Reader, size int64) *Reader {
	return &Reader{dec: json.NewDecoder(r), src: r, size: size}
}

// Header decodes the JSON header into v.
func (r *Reader) Header(v any) error {
	if err := r.dec.Decode(v); err != nil {
		return fmt.Errorf("framing: header: %w", err)
	}
	return nil
}

// Blobs reads the blobs that follow the header, whose sizes the header
// declared, and checks that nothing follows them. It must be called once,
// after Header, even when sizes is empty.
func (r *Reader) Blobs(sizes []int) ([][]byte, error) {
	var total int64
	for _, n := range sizes {
		if n < 0 {
			return nil, fmt.Errorf("framing: negative blob size %d", n)
		}
		if int64(n) > math.MaxInt64-total {
			return nil, errors.New("framing: blob sizes overflow")
		}
		total += int64(n)
	}
	rest := io.MultiReader(r.dec.Buffered(), r.src)
	var nl [1]byte
	switch _, err := io.ReadFull(rest, nl[:]); {
	case errors.Is(err, io.EOF):
		// Plain JSON: valid only when nothing was meant to follow.
		if total > 0 {
			return nil, fmt.Errorf("framing: header declares %d blob bytes, body has none", total)
		}
	case err != nil:
		return nil, fmt.Errorf("framing: %w", err)
	case nl[0] != '\n':
		return nil, errors.New("framing: header not followed by a newline")
	case r.size >= 0 && r.size-r.dec.InputOffset()-1 != total:
		return nil, fmt.Errorf("framing: header declares %d blob bytes, body carries %d",
			total, r.size-r.dec.InputOffset()-1)
	}
	blobs := make([][]byte, len(sizes))
	for i, n := range sizes {
		blob, err := readBlob(rest, n)
		if err != nil {
			return nil, fmt.Errorf("framing: blob %d of %d: %w", i, len(sizes), err)
		}
		blobs[i] = blob
	}
	switch _, err := io.ReadFull(rest, nl[:]); {
	case err == nil:
		return nil, errors.New("framing: trailing bytes after the last blob")
	case !errors.Is(err, io.EOF):
		return nil, fmt.Errorf("framing: %w", err)
	}
	return blobs, nil
}

// readBlob reads exactly n bytes, growing its buffer only as they arrive.
func readBlob(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), readStep))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			return nil, fmt.Errorf("truncated: %w", err)
		}
		buf = buf[:len(buf)+step]
	}
	return buf, nil
}
