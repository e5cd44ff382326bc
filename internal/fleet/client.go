package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store/codec"
	"repro/internal/wire"
)

// maxLineBytes bounds one NDJSON row on a shard stream. A row is a
// single scenario result — tens of floats — so 1 MiB is three orders of
// magnitude of headroom while still refusing a runaway line.
const maxLineBytes = 1 << 20

// Client talks to one fleet replica. It gates every exchange on the
// peer's /v1/version: a replica whose artifact codec format version
// differs from this process's is refused permanently — shipping it
// shards or trusting its artifacts would trade undecodable bytes. The
// eval wire protocol version is gated independently and softly: a peer
// on a different wire version is still used, over NDJSON instead of the
// binary stream. The zero value is not usable; call NewClient. Safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client

	mu       sync.Mutex
	verified bool  // version checked and compatible
	refused  error // non-nil: permanently incompatible
	wireOK   bool  // peer speaks this build's binary eval stream
}

// NewClient returns a client for the replica at base (scheme://host,
// no trailing slash needed). hc nil means http.DefaultClient; fleet
// streams are long-lived, so the client must not impose an overall
// request timeout.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: hc}
}

// Base returns the replica's base URL.
func (c *Client) Base() string { return c.base }

// Refused reports whether the peer has been permanently refused for
// version incompatibility.
func (c *Client) Refused() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refused != nil
}

// WireOK reports whether eval streams to this peer use the binary wire
// format. Meaningful only after a successful Check.
func (c *Client) WireOK() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wireOK
}

// Check verifies the peer is compatible, fetching /v1/version on first
// use. A compatible answer is cached for the client's lifetime (the
// format versions are fixed per build); an incompatible answer is
// cached as a permanent refusal; a transport failure is returned but
// not cached, so a peer that was briefly unreachable gets re-checked.
func (c *Client) Check(ctx context.Context) error {
	c.mu.Lock()
	if c.refused != nil {
		err := c.refused
		c.mu.Unlock()
		return err
	}
	if c.verified {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()

	v, err := c.Version(ctx)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.CodecFormatVersion != codec.FormatVersion {
		c.refused = fmt.Errorf("fleet: peer %s runs codec format v%d, this build is v%d: refusing",
			c.base, v.CodecFormatVersion, codec.FormatVersion)
		return c.refused
	}
	c.wireOK = v.WireFormatVersion == wire.FormatVersion
	if !c.wireOK && obs.Fleet.Enabled(obs.LevelInfo) {
		obs.Fleet.Log(ctx, obs.LevelInfo, "peer wire version skew; using NDJSON transport",
			"replica", c.base, "peer_wire", v.WireFormatVersion, "local_wire", wire.FormatVersion)
	}
	c.verified = true
	return nil
}

// Version fetches the peer's /v1/version.
func (c *Client) Version(ctx context.Context) (service.VersionResponse, error) {
	var v service.VersionResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/version", nil)
	if err != nil {
		return v, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return v, fmt.Errorf("fleet: version check of %s: %w", c.base, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("fleet: version check of %s: status %d", c.base, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxLineBytes)).Decode(&v); err != nil {
		return v, fmt.Errorf("fleet: version check of %s: %w", c.base, err)
	}
	return v, nil
}

// StreamEval posts req (which must have Stream set) to the replica's
// /v1/eval and invokes row for every scenario, in stream order. When
// a Check has found the peer speaking this build's wire version the
// exchange is binary end to end — wire request document, wire response
// frames; otherwise (wire skew, or no Check yet) the classic JSON body
// and NDJSON response. Either way row receives a freshly decoded result
// it may retain. A non-200 status, a transport failure, or a stream-level
// error (a replica cancelled mid-stream) is returned as an error; row's
// own error aborts the stream and is returned verbatim.
func (c *Client) StreamEval(ctx context.Context, req service.EvalRequest, row func(sc *service.ScenarioResult) error) error {
	var (
		body []byte
		ct   string
		err  error
	)
	if c.WireOK() {
		req.Format = "wire"
		body = wire.EncodeRequest(req)
		ct = wire.ContentType
		obs.WireBytesOutTotal.Add(uint64(len(body)))
	} else {
		if body, err = json.Marshal(req); err != nil {
			return err
		}
		ct = "application/json"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", ct)
	hreq.Header.Set(shardHeader, "1")
	// Propagate the coordinator's request identity so the replica's
	// access logs carry the same request ID, and — when the request is
	// sampled — its trace context, so replica-side spans land in the
	// coordinator's trace for stitching.
	if id := obs.RequestID(ctx); id != "" {
		hreq.Header.Set(obs.RequestIDHeader, id)
	}
	obs.InjectTraceContext(ctx, hreq.Header)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("fleet: eval on %s: %w", c.base, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: eval on %s: status %d: %s",
			c.base, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if strings.Contains(resp.Header.Get("Content-Type"), wire.ContentType) {
		return c.streamWire(resp.Body, row)
	}
	return c.streamNDJSON(resp.Body, row)
}

// streamWire decodes a binary wire response stream.
func (c *Client) streamWire(r io.Reader, row func(sc *service.ScenarioResult) error) error {
	rd, err := wire.NewReader(r)
	if err != nil {
		return fmt.Errorf("fleet: eval stream from %s: %w", c.base, err)
	}
	defer func() { obs.WireBytesInTotal.Add(uint64(rd.BytesRead())) }()
	for {
		sc, err := rd.Next()
		switch {
		case err == nil:
			if err := row(sc); err != nil {
				return err
			}
		case errors.Is(err, io.EOF):
			return nil
		default:
			var se *wire.StreamError
			if errors.As(err, &se) {
				// The replica's stream died (cancellation); fail the attempt
				// so the rows get re-fetched.
				return fmt.Errorf("fleet: shard stream error from %s: %s", c.base, se.Msg)
			}
			return fmt.Errorf("fleet: eval stream from %s: %w", c.base, err)
		}
	}
}

// streamNDJSON decodes the classic newline-delimited JSON stream.
func (c *Client) streamNDJSON(r io.Reader, row func(sc *service.ScenarioResult) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !bytes.HasPrefix(line, []byte(`{"mix":`)) {
			// A stream-level error line (cancellation on the replica).
			return fmt.Errorf("fleet: shard stream error from %s: %s", c.base, line)
		}
		var res service.ScenarioResult
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("fleet: undecodable row from %s: %w", c.base, err)
		}
		if err := row(&res); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("fleet: eval stream from %s: %w", c.base, err)
	}
	return nil
}

// Artifact fetches one stored artifact's raw bytes from the peer.
// ok=false with a nil error means the peer doesn't have it — the signal
// to try the next peer, as opposed to a transport or protocol failure.
func (c *Client) Artifact(ctx context.Context, kind, key string) (data []byte, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/artifacts/"+kind+"/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: artifact fetch from %s: %w", c.base, err)
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, fmt.Errorf("fleet: artifact fetch from %s: %w", c.base, err)
		}
		return b, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("fleet: artifact fetch from %s: status %d",
			c.base, resp.StatusCode)
	}
}

// maxTraceBody bounds a pulled trace document: 512 spans per trace
// (the replica recorder's cap) at well under 1 KiB a span.
const maxTraceBody = 4 << 20

// Traces pulls the replica's locally recorded spans for one trace ID —
// the stitching side of distributed tracing. The ?local=1 marker stops
// a replica that is itself coordinating from recursing into its own
// stitch handler. ok=false with a nil error means the replica has
// nothing for the trace (or doesn't expose the debug endpoints), which
// stitching treats as an empty lane, not a failure.
func (c *Client) Traces(ctx context.Context, traceID string) (spans []service.SpanJSON, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/debug/traces/"+url.PathEscape(traceID)+"?local=1", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: trace fetch from %s: %w", c.base, err)
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		var tr service.TraceResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxTraceBody)).Decode(&tr); err != nil {
			return nil, false, fmt.Errorf("fleet: trace fetch from %s: %w", c.base, err)
		}
		return tr.Spans, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("fleet: trace fetch from %s: status %d",
			c.base, resp.StatusCode)
	}
}

// drainClose consumes a bounded remainder of the body before closing so
// the keep-alive connection can be reused.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 64*1024))
	_ = rc.Close()
}
