package wei

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"colormatch/internal/sim"
)

func newHTTPFixture(t *testing.T) (*HTTPClient, *Registry) {
	t.Helper()
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	reg.Add(fakeModule("dev2", nil))
	srv := httptest.NewServer(ServeModules(reg))
	t.Cleanup(srv.Close)
	return NewHTTPClient(srv.URL, "dev1", "dev2"), reg
}

func TestHTTPActRoundTrip(t *testing.T) {
	c, _ := newHTTPFixture(t)
	res, err := c.Act(context.Background(), "dev1", "ping", Args{"echo": "over http"})
	if err != nil {
		t.Fatal(err)
	}
	if res["pong"] != true || res["echo"] != "over http" {
		t.Fatalf("result = %#v", res)
	}
}

func TestHTTPActionErrorPropagates(t *testing.T) {
	c, _ := newHTTPFixture(t)
	_, err := c.Act(context.Background(), "dev1", "boom", nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPUnknownActionErrorPropagates(t *testing.T) {
	c, _ := newHTTPFixture(t)
	_, err := c.Act(context.Background(), "dev1", "nope", nil)
	if err == nil || !strings.Contains(err.Error(), "no action") {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPUnknownModule(t *testing.T) {
	c, _ := newHTTPFixture(t)
	if _, err := c.Act(context.Background(), "ghost", "ping", nil); err == nil {
		t.Fatal("unknown module accepted")
	}
	// Module known to client but not to server.
	c.BaseURL["ghost"] = c.BaseURL["dev1"]
	if _, err := c.Act(context.Background(), "ghost", "ping", nil); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatal("server-side unknown module not a 404")
	}
}

func TestHTTPStateAndAbout(t *testing.T) {
	c, _ := newHTTPFixture(t)
	ctx := context.Background()
	st, err := c.State(ctx, "dev2")
	if err != nil || st != StateReady {
		t.Fatalf("State = %v, %v", st, err)
	}
	info, err := c.About(ctx, "dev1")
	if err != nil || info.Name != "dev1" || len(info.Actions) != 2 {
		t.Fatalf("About = %+v, %v", info, err)
	}
}

func TestHTTPEngineEndToEnd(t *testing.T) {
	// The engine must behave identically over HTTP as in-process.
	reg := NewRegistry()
	clock := sim.NewSimClock()
	reg.Add(slowModule("dev", clock, 10*time.Second))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()

	client := NewHTTPClient(srv.URL, "dev")
	eng := NewEngine(client, clock, NewEventLog(clock))
	rec, err := eng.RunWorkflow(context.Background(), &WorkflowSpec{
		Name:  "http_wf",
		Steps: []Step{{Name: "s", Module: "dev", Action: "work"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Steps[0].Result["ok"] != true {
		t.Fatalf("result = %#v", rec.Steps[0].Result)
	}
	if rec.Steps[0].Duration != 10*time.Second {
		t.Fatalf("virtual duration over HTTP = %v", rec.Steps[0].Duration)
	}
}

func TestHealthz(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPBadPaths(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	for _, path := range []string{"/modules/", "/modules/dev1", "/modules/dev1/unknown", "/modules/ghost/state"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("path %q returned 200", path)
		}
	}
}

// blobModule returns a module whose "shoot" action mixes raw bytes with
// every JSON shape a Result may carry.
func blobModule(frame []byte) *Base {
	b := NewBase("cam", "camera", "")
	b.Register(ActionInfo{Name: "shoot"}, func(ctx context.Context, args Args) (Result, error) {
		return Result{
			"image_png": frame,
			"thumb":     []byte{},
			"raw":       []byte{0, '\n', 0xff, '"'},
			"plate_id":  "plate-7",
			"frame":     3.0,
			"ok":        true,
			"nested":    map[string]any{"wells": []any{1.0, "A1", map[string]any{"x": 0.5}}},
		}, nil
	})
	return b
}

// TestHTTPResultBitIdentical: a Result round-trips over HTTP to exactly what
// the in-process Registry returns — []byte values come back as []byte with
// the same bytes, not as base64 strings.
func TestHTTPResultBitIdentical(t *testing.T) {
	frame := make([]byte, 920_000)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	reg := NewRegistry()
	reg.Add(blobModule(frame))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	ctx := context.Background()
	local, err := reg.Act(ctx, "cam", "shoot", nil)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewHTTPClient(srv.URL, "cam").Act(ctx, "cam", "shoot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("HTTP result differs from in-process result:\n local  %v\n remote %v", keysAndTypes(local), keysAndTypes(remote))
	}
	if &local["image_png"].([]byte)[0] != &frame[0] {
		t.Fatal("in-process result copied the frame instead of handing it over")
	}
}

func keysAndTypes(r Result) map[string]string {
	out := make(map[string]string, len(r))
	for k, v := range r {
		out[k] = fmt.Sprintf("%T", v)
	}
	return out
}

// TestHTTPMalformedFramedResponse: a framed body that is truncated,
// garbled or inconsistent with its header is a transport fault (the cell,
// not the command, is broken), exactly like a non-JSON body.
func TestHTTPMalformedFramedResponse(t *testing.T) {
	cases := map[string]struct {
		body   string
		length bool // send a Content-Length
	}{
		"truncated blob":      {"{\"result\":{},\"blob_sizes\":{\"image_png\":10}}\nabc", false},
		"declared past end":   {"{\"result\":{},\"blob_sizes\":{\"image_png\":10}}\nabc", true},
		"trailing bytes":      {"{\"result\":{},\"blob_sizes\":{\"image_png\":1}}\nabc", true},
		"missing newline":     {"{\"result\":{},\"blob_sizes\":{\"image_png\":3}}abc", true},
		"negative size":       {"{\"result\":{},\"blob_sizes\":{\"image_png\":-3}}\n", true},
		"overflowing sizes":   {"{\"blob_sizes\":{\"a\":9223372036854775807,\"b\":9223372036854775807}}\nab", false},
		"garbled header":      {"{\"result\":{\"pong\":tru}\n", true},
		"non-numeric size":    {"{\"blob_sizes\":{\"image_png\":\"3\"}}\nabc", true},
		"bytes after no blob": {"{\"result\":{\"pong\":true}}\nextra", true},
	}
	for name, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if tc.length {
				w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)))
			}
			w.Write([]byte(tc.body))
			w.(http.Flusher).Flush()
		}))
		_, err := NewHTTPClient(srv.URL, "dev").Act(context.Background(), "dev", "ping", nil)
		srv.Close()
		var te *TransportError
		if !errors.As(err, &te) || te.Op != "decode" || Classify(err) != ClassWorkcellDown {
			t.Errorf("%s: err = %v (%T), want a TransportError from decode", name, err, err)
		}
	}
}
