// Package client is the typed Go client for ratd, the RAT prediction
// service. It speaks the HTTP/JSON API of internal/server: single and
// multi-FPGA predictions, batch predictions and bounded design-space
// explorations, all from the worksheet parameter form.
//
// Every API endpoint is pure — a prediction is a function of its
// worksheet, with no server-side state mutation — so every request is
// idempotent and safe to retry. The client exploits that with
// exponential backoff plus jitter (the same policy shape as
// internal/fault's retry machinery): transport errors and 429/502/
// 503/504 responses are retried up to the policy budget, honoring
// Retry-After hints; any other HTTP error is returned immediately as
// an *APIError.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/chrec/rat/internal/api"
	"github.com/chrec/rat/internal/core"
	"github.com/chrec/rat/internal/obs"
	"github.com/chrec/rat/internal/wire"
	"github.com/chrec/rat/internal/worksheet"
)

// Wire types re-exported for callers outside the module.
type (
	// ExploreRequest describes a bounded grid search around a base
	// worksheet.
	ExploreRequest = api.ExploreRequest
	// ExploreResponse carries the search outcome: top candidates,
	// optional Pareto frontier, and engine statistics.
	ExploreResponse = api.ExploreResponse
	// Candidate is one evaluated design point.
	Candidate = api.Candidate
	// Status is a live operational snapshot of a ratd process.
	Status = api.Status
)

// RetryPolicy bounds the client's retry behavior. It mirrors the
// shape of the fault-injection retry policy used by the simulated
// platforms (internal/fault): a retry budget and exponential backoff,
// here with jitter because real networks reward desynchronization.
type RetryPolicy struct {
	// MaxRetries is the number of retry attempts after the first try;
	// 0 disables retries.
	MaxRetries int
	// Backoff is the wait before the first retry; retry k waits
	// Backoff * Growth^(k-1), capped at MaxBackoff.
	Backoff time.Duration
	// Growth is the exponential backoff factor. Zero means 2.
	Growth float64
	// Jitter is the fraction of the computed backoff randomized away:
	// 0.2 means the actual wait is uniform in [0.8d, 1.2d].
	Jitter float64
	// MaxBackoff caps a single wait. Zero means 5s.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is the policy New installs: three retries from
// 100ms doubling, 20% jitter, capped at 5s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries: 3,
		Backoff:    100 * time.Millisecond,
		Growth:     2,
		Jitter:     0.2,
		MaxBackoff: 5 * time.Second,
	}
}

// backoffFor returns the jittered wait before retry attempt k (1-based).
func (p RetryPolicy) backoffFor(attempt int, rnd func() float64) time.Duration {
	growth := p.Growth
	if growth == 0 {
		growth = 2
	}
	maxB := p.MaxBackoff
	if maxB == 0 {
		maxB = 5 * time.Second
	}
	d := float64(p.Backoff)
	for k := 1; k < attempt; k++ {
		d *= growth
		if d >= float64(maxB) {
			break
		}
	}
	if d > float64(maxB) {
		d = float64(maxB)
	}
	if p.Jitter > 0 && rnd != nil {
		d *= 1 + p.Jitter*(2*rnd()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// APIError is a non-2xx response from the service.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
	// RetryAfter is the parsed Retry-After hint, zero when absent.
	RetryAfter time.Duration
	// TraceID is the trace identifier of the failed request — the
	// server's echo when it answered with one, otherwise the ID the
	// client sent. Quote it when filing a report: the same ID appears
	// in ratd's access log and per-stage span records.
	TraceID string
}

func (e *APIError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("ratd: %d %s: %s (trace %s)", e.StatusCode, http.StatusText(e.StatusCode), e.Message, e.TraceID)
	}
	return fmt.Sprintf("ratd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Temporary reports whether the error is worth retrying.
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// WireFormat selects the encoding the client uses for prediction
// requests and responses.
type WireFormat int

const (
	// WireJSON is the default worksheet-JSON exchange.
	WireJSON WireFormat = iota
	// WireBinary uses the compact application/x-rat-bin frame format
	// in both directions for Predict, PredictMulti and PredictBatch —
	// fixed-width fields instead of JSON text, the cheap choice for
	// bulk traffic. Explore and the meta endpoints stay JSON. The
	// decoded predictions are bit-for-bit identical either way (pinned
	// by the server's wire-parity tests); see docs/SERVER.md.
	WireBinary
)

// Client talks to one ratd instance. The zero value is not usable;
// construct with New.
type Client struct {
	baseURL string
	hc      *http.Client
	retry   RetryPolicy
	rnd     func() float64
	log     *slog.Logger
	apiKey  string
	wireFmt WireFormat
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying http.Client (default: 30s
// timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryPolicy replaces the retry policy.
func WithRetryPolicy(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// WithLogger installs a structured logger. The client logs one warn
// line per retry (attempt number, wait, trace_id, the error being
// retried); nothing is logged on the happy path.
func WithLogger(l *slog.Logger) Option { return func(c *Client) { c.log = l } }

// WithAPIKey attaches a tenant API key to every request as a bearer
// token (multi-tenant servers refuse keyless API requests with 401;
// see docs/TENANCY.md).
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithWireFormat selects the prediction wire format (default
// WireJSON).
func WithWireFormat(f WireFormat) Option { return func(c *Client) { c.wireFmt = f } }

// withJitterSource injects the jitter randomness (tests).
func withJitterSource(rnd func() float64) Option { return func(c *Client) { c.rnd = rnd } }

// New builds a client for the service at baseURL (scheme://host:port).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: strings.TrimSuffix(baseURL, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retry:   DefaultRetryPolicy(),
		rnd:     rand.Float64,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Predict evaluates one worksheet on the service. The result is
// bit-for-bit what rat.Predict returns locally for the same
// parameters.
func (c *Client) Predict(ctx context.Context, p core.Parameters) (core.Prediction, error) {
	if c.wireFmt == WireBinary {
		respBody, err := c.roundTrip(ctx, http.MethodPost, "/v1/predict",
			wire.AppendBinaryWorksheet(nil, p), true)
		if err != nil {
			return core.Prediction{}, err
		}
		pr, err := wire.DecodeBinaryPrediction(respBody)
		if err != nil {
			return core.Prediction{}, err
		}
		return pr.Core(), nil
	}
	body, err := marshalWorksheet(p)
	if err != nil {
		return core.Prediction{}, err
	}
	var pr api.Prediction
	if err := c.do(ctx, "/v1/predict", body, &pr); err != nil {
		return core.Prediction{}, err
	}
	return pr.Core(), nil
}

// PredictMulti evaluates one worksheet across a multi-FPGA system,
// bit-for-bit rat.PredictMulti.
func (c *Client) PredictMulti(ctx context.Context, p core.Parameters, cfg core.MultiConfig) (core.MultiPrediction, error) {
	var body []byte
	if c.wireFmt != WireBinary {
		var err error
		body, err = marshalWorksheet(p)
		if err != nil {
			return core.MultiPrediction{}, err
		}
	}
	q := url.Values{}
	q.Set("devices", strconv.Itoa(cfg.Devices))
	switch cfg.Topology {
	case core.IndependentChannels:
		q.Set("topology", "independent")
	default:
		q.Set("topology", "shared")
	}
	if c.wireFmt == WireBinary {
		respBody, err := c.roundTrip(ctx, http.MethodPost, "/v1/predict?"+q.Encode(),
			wire.AppendBinaryWorksheet(nil, p), true)
		if err != nil {
			return core.MultiPrediction{}, err
		}
		mp, err := wire.DecodeBinaryMultiPrediction(respBody)
		if err != nil {
			return core.MultiPrediction{}, err
		}
		return mp.Core(), nil
	}
	var mp api.MultiPrediction
	if err := c.do(ctx, "/v1/predict?"+q.Encode(), body, &mp); err != nil {
		return core.MultiPrediction{}, err
	}
	return mp.Core(), nil
}

// PredictBatch evaluates many worksheets in one request; element i of
// the result is bit-for-bit rat.Predict of worksheet i.
func (c *Client) PredictBatch(ctx context.Context, ps []core.Parameters) ([]core.Prediction, error) {
	if c.wireFmt == WireBinary {
		respBody, err := c.roundTrip(ctx, http.MethodPost, "/v1/predict/batch",
			wire.AppendBinaryWorksheets(nil, ps), true)
		if err != nil {
			return nil, err
		}
		preds, err := wire.DecodeBinaryPredictions(respBody)
		if err != nil {
			return nil, err
		}
		out := make([]core.Prediction, len(preds))
		for i := range preds {
			out[i] = preds[i].Core()
		}
		return out, nil
	}
	docs := make([]worksheet.Doc, len(ps))
	for i, p := range ps {
		docs[i] = worksheet.DocFromParams(p)
	}
	body, err := json.Marshal(docs)
	if err != nil {
		return nil, err
	}
	var preds []api.Prediction
	if err := c.do(ctx, "/v1/predict/batch", body, &preds); err != nil {
		return nil, err
	}
	out := make([]core.Prediction, len(preds))
	for i := range preds {
		out[i] = preds[i].Core()
	}
	return out, nil
}

// Explore runs a bounded grid search on the service.
func (c *Client) Explore(ctx context.Context, req ExploreRequest) (ExploreResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return ExploreResponse{}, err
	}
	var resp ExploreResponse
	if err := c.do(ctx, "/v1/explore", body, &resp); err != nil {
		return ExploreResponse{}, err
	}
	return resp, nil
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz")
	return err
}

// Ready reports readiness: false (with nil error) while the server is
// draining.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	_, err := c.get(ctx, "/readyz")
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Metrics fetches the text rendering of the server's telemetry
// registry.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	return c.get(ctx, "/metrics")
}

// Status fetches the live operational snapshot of the service: QPS,
// per-endpoint latency quantiles, cache hit ratio and per-stage timing
// distributions. See docs/OBSERVABILITY.md for
// the schema.
func (c *Client) Status(ctx context.Context) (Status, error) {
	body, err := c.roundTrip(ctx, http.MethodGet, "/v1/status", nil, false)
	if err != nil {
		return Status{}, err
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

func marshalWorksheet(p core.Parameters) ([]byte, error) {
	var buf bytes.Buffer
	if err := worksheet.EncodeJSON(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// do POSTs body to path with the retry policy and decodes the JSON
// response into out. Retrying POSTs is sound here because every
// endpoint is a pure function of the request.
func (c *Client) do(ctx context.Context, path string, body []byte, out any) error {
	respBody, err := c.roundTrip(ctx, http.MethodPost, path, body, false)
	if err != nil {
		return err
	}
	return json.Unmarshal(respBody, out)
}

// get fetches a text endpoint with the same retry discipline.
func (c *Client) get(ctx context.Context, path string) (string, error) {
	body, err := c.roundTrip(ctx, http.MethodGet, path, nil, false)
	return string(body), err
}

// roundTrip runs one logical request through the retry loop. binary
// marks a prediction exchange in the x-rat-bin wire format: the body
// is a binary frame and the response is requested in kind.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, binary bool) ([]byte, error) {
	// One trace spans the logical request; every attempt under it gets
	// its own span ID, so a server-side log shows retries as siblings.
	trace := obs.NewTraceID()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			wait := c.retry.backoffFor(attempt, c.rnd)
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > wait {
				wait = apiErr.RetryAfter
			}
			if c.log != nil {
				c.log.LogAttrs(ctx, slog.LevelWarn, "retry",
					slog.String("method", method),
					slog.String("path", path),
					slog.Int("attempt", attempt),
					slog.Duration("wait", wait),
					slog.String("trace_id", trace.String()),
					slog.Any("err", lastErr))
			}
			// Honored waits are capped by the request deadline: when
			// even the server's own Retry-After hint cannot fit before
			// the context expires, fail now instead of sleeping into a
			// guaranteed timeout.
			if deadline, ok := ctx.Deadline(); ok && wait >= time.Until(deadline) {
				return nil, fmt.Errorf("retry wait %v exceeds the request deadline: %w", wait, lastErr)
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
			}
		}

		respBody, err := c.attempt(ctx, method, path, body, binary, trace)
		if err == nil {
			return respBody, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			return nil, err // the request itself is wrong; retrying cannot help
		}
		if attempt >= c.retry.MaxRetries {
			if attempt > 0 {
				return nil, fmt.Errorf("after %d attempts: %w", attempt+1, err)
			}
			return nil, err
		}
	}
}

func (c *Client) attempt(ctx context.Context, method, path string, body []byte, binary bool, trace obs.TraceID) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		if binary {
			req.Header.Set("Content-Type", wire.ContentTypeBinary)
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if binary {
		// Errors still arrive as JSON bodies; only 2xx prediction
		// responses use the binary frame.
		req.Header.Set("Accept", wire.ContentTypeBinary)
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(trace, obs.NewSpanID()))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{StatusCode: resp.StatusCode, TraceID: trace.String()}
		if id, _, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader)); ok {
			apiErr.TraceID = id.String() // prefer the server's echo: it is what the access log shows
		}
		var e api.Error
		if json.Unmarshal(respBody, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(respBody))
		}
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			apiErr.RetryAfter = d
		}
		return nil, apiErr
	}
	return respBody, nil
}

// parseRetryAfter parses a Retry-After header in either RFC 9110
// form: delta-seconds ("5") or an HTTP-date ("Fri, 08 Aug 2026
// 12:00:00 GMT", evaluated against now — a date already past means
// retry immediately). Malformed values report !ok and are ignored,
// leaving the client on its own backoff schedule.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
