package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	mppm "repro"
	"repro/internal/store/codec"
)

// TestEvalStream checks the NDJSON mode of /v1/eval against the
// buffered mode: same request with stream:true must produce one line
// per scenario, in the same config-major order, and each line must be
// byte-identical to the buffered response's scenario encoded alone —
// the property the fleet coordinator's verbatim line forwarding relies
// on.
func TestEvalStream(t *testing.T) {
	ts, _ := newTestServer(t)
	req := EvalRequest{
		Kind:    "compare",
		Mixes:   [][]string{{"gamess", "lbm"}, {"mcf", "milc"}},
		Configs: []string{"config#1", "config#2"},
	}

	_, bufData := postJSON(t, ts.URL+"/v1/eval", req)
	var buffered EvalResponse
	if err := json.Unmarshal(bufData, &buffered); err != nil {
		t.Fatal(err)
	}

	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("Content-Type %q, want %q", ct, ndjsonContentType)
	}

	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(buffered.Scenarios) {
		t.Fatalf("%d streamed rows, want %d", len(lines), len(buffered.Scenarios))
	}
	for i, line := range lines {
		want, err := json.Marshal(buffered.Scenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("row %d differs from buffered scenario:\n stream: %s\n buffer: %s",
				i, line, want)
		}
	}
}

// TestEvalStreamRejectsTopK: request validation failures surface as a
// plain error status, not a 200 with a trailing error line — nothing
// has been streamed yet.
func TestEvalStreamRejectsTopK(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/eval", EvalRequest{
		Kind:    "predict",
		Mixes:   [][]string{{"gamess", "lbm"}},
		Configs: []string{"config#1"},
		TopK:    1,
		Stream:  true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
}

func TestVersionEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v VersionResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.CodecFormatVersion != codec.FormatVersion {
		t.Fatalf("codec version %d, want %d", v.CodecFormatVersion, codec.FormatVersion)
	}
	if v.GoVersion != runtime.Version() {
		t.Fatalf("go version %q, want %q", v.GoVersion, runtime.Version())
	}
	if v.Module == "" || v.Version == "" {
		t.Fatalf("empty module/version: %+v", v)
	}
}

// TestArtifactEndpoint exercises the raw artifact exchange: warmed
// recordings must be served byte-for-byte as stored (checksum intact),
// malformed references must 400, absent ones 404.
func TestArtifactEndpoint(t *testing.T) {
	dir := t.TempDir()
	sys := mppm.NewSystem(mppm.DefaultLLC(),
		mppm.WithScale(testTraceLen, testInterval), mppm.WithStore(dir))
	ts := httptest.NewServer(New(sys).Handler())
	t.Cleanup(ts.Close)
	if _, err := sys.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Find one persisted recording on disk; its basename is the key the
	// endpoint addresses it by.
	var key, diskPath string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".rec") {
			return err
		}
		if key == "" {
			key = strings.TrimSuffix(filepath.Base(path), ".rec")
			diskPath = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("warmup persisted no recordings")
	}
	want, err := os.ReadFile(diskPath)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/artifacts/recordings/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served %d bytes differ from stored %d bytes", len(got), len(want))
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/artifacts/recordings/not-a-key", http.StatusBadRequest},
		{"/v1/artifacts/tarballs/" + key, http.StatusBadRequest},
		{"/v1/artifacts/recordings/" + strings.Repeat("0", 32), http.StatusNotFound},
		{"/v1/artifacts/profiles/" + strings.Repeat("0", 32), http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestArtifactEndpointNoStore: a replica running without a persistent
// store answers 404 — to the fetching peer it's indistinguishable from
// "not persisted here", which is the right signal to try elsewhere.
func TestArtifactEndpointNoStore(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/artifacts/recordings/" + strings.Repeat("0", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
