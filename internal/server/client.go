// Client is the Go client of the bonsaid API — the other half of the wire
// contract, used by `bonsai -server` thin-client mode and the server tests.
// Every method mirrors one endpoint and decodes into the same public
// structs the library returns, so a caller can swap an in-process Engine
// for a remote tenant without changing result handling.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"bonsai"
)

// Client talks to one bonsaid instance.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7171"). The transport bounds connection setup and
// time-to-first-header so a wedged daemon fails fast, but imposes no overall
// deadline: replay and compress streams legitimately run long. Idempotent
// requests (reads, plus the read-only verify/compress POSTs) that hit 429
// admission control are retried with capped exponential backoff and jitter,
// honoring a Retry-After header when the daemon sends one, at most
// maxRetries times. Mutations (Open, Apply, Replay) are never
// retried: a retry after an ambiguous failure could double-submit, and the
// caller owns the ack bookkeeping.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: 2 * time.Minute,
			MaxIdleConnsPerHost:   4,
		}},
	}
}

// apiError is a non-2xx response, preserving the status code so callers can
// distinguish overload (429/503) from failure.
type apiError struct {
	Status  int
	Message string
	// RetryAfter is the parsed Retry-After header on 429/503, if any.
	RetryAfter time.Duration
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// StatusCode returns err's HTTP status if it came from the daemon, else 0.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// once issues a single request and decodes the JSON response into out
// (skipped when out is nil; a func(*json.Decoder) error out is handed the
// decoder instead, to read a stream). Non-2xx responses become *apiError.
func (c *Client) once(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &apiError{
			Status:     resp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	dec := json.NewDecoder(resp.Body)
	switch out := out.(type) {
	case nil:
		return nil
	case func(*json.Decoder) error:
		return out(dec)
	}
	return dec.Decode(out)
}

// parseRetryAfter handles both delta-seconds and HTTP-date forms.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// maxRetries caps the 429 retries of one idempotent call, and
// retryBackoffCap the exponential backoff between them.
const (
	maxRetries      = 3
	retryBackoffCap = 2 * time.Second
)

// doIdem is the idempotent unary path: on 429 it backs off (Retry-After when
// the daemon provides it, else capped exponential with full jitter) and
// retries up to maxRetries times.
func (c *Client) doIdem(ctx context.Context, method, path string, body io.Reader, out any) error {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		var ae *apiError
		if err == nil || !errors.As(err, &ae) ||
			ae.Status != http.StatusTooManyRequests || attempt >= maxRetries {
			return err
		}
		if body != nil {
			s, ok := body.(io.Seeker)
			if !ok {
				return err // body consumed and not replayable
			}
			if _, serr := s.Seek(0, io.SeekStart); serr != nil {
				return err
			}
		}
		wait := ae.RetryAfter
		if wait <= 0 {
			// Full jitter: a uniform draw from (0, backoff] decorrelates
			// clients that were rejected by the same admission burst.
			wait = time.Duration(rand.Int63n(int64(backoff))) + 1
		}
		backoff *= 2
		if backoff > retryBackoffCap {
			backoff = retryBackoffCap
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
}

func jsonBody(v any) io.Reader {
	b, _ := json.Marshal(v)
	return bytes.NewReader(b)
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.doIdem(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Open creates tenant name over the network's text serialization.
func (c *Client) Open(ctx context.Context, name string, network io.Reader) error {
	return c.once(ctx, http.MethodPut, "/v1/tenants/"+url.PathEscape(name), network, nil)
}

// Apply sends one delta and returns its report.
func (c *Client) Apply(ctx context.Context, name string, d bonsai.Delta) (*bonsai.ApplyReport, error) {
	var rep bonsai.ApplyReport
	err := c.once(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(name)+"/apply", jsonBody(d), &rep)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// Replay streams JSONL-encoded deltas from r through the tenant's
// ApplyStream. pending/staleness mirror bonsai.WithMaxPending /
// WithMaxStaleness (zero values are omitted).
func (c *Client) Replay(ctx context.Context, name string, r io.Reader, pending int, staleness time.Duration) (*bonsai.ApplyStreamReport, error) {
	q := url.Values{}
	if pending > 0 {
		q.Set("pending", fmt.Sprint(pending))
	}
	if staleness > 0 {
		q.Set("staleness", staleness.String())
	}
	path := "/v1/tenants/" + url.PathEscape(name) + "/replay"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var rep bonsai.ApplyStreamReport
	if err := c.once(ctx, http.MethodPost, path, r, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Verify runs a verification and returns its report.
func (c *Client) Verify(ctx context.Context, name string, req bonsai.VerifyRequest) (*bonsai.Report, error) {
	var rep bonsai.Report
	err := c.doIdem(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(name)+"/verify", jsonBody(req), &rep)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// Compress compresses the selected classes and returns the batch report.
func (c *Client) Compress(ctx context.Context, name string, sel bonsai.ClassSelector) (*bonsai.CompressReport, error) {
	var rep bonsai.CompressReport
	err := c.doIdem(ctx, http.MethodPost, "/v1/tenants/"+url.PathEscape(name)+"/compress", jsonBody(sel), &rep)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// CompressStream streams per-class rows (row is called for each as it
// arrives) and returns the final report.
func (c *Client) CompressStream(ctx context.Context, name string, sel bonsai.ClassSelector, row func(bonsai.ClassResult)) (*bonsai.CompressReport, error) {
	path := "/v1/tenants/" + url.PathEscape(name) + "/compress?stream=1"
	var rep *bonsai.CompressReport
	err := c.once(ctx, http.MethodPost, path, jsonBody(sel), func(dec *json.Decoder) error {
		for {
			var msg struct {
				Row    *bonsai.ClassResult    `json:"row"`
				Report *bonsai.CompressReport `json:"report"`
				Error  string                 `json:"error"`
			}
			err := dec.Decode(&msg)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if msg.Row != nil && row != nil {
				row(*msg.Row)
			}
			if msg.Report != nil {
				rep = msg.Report
			}
			if msg.Error != "" {
				// The trailer flags a stream truncated by an engine error.
				return fmt.Errorf("server: compress stream failed: %s", msg.Error)
			}
		}
	})
	if err != nil {
		return rep, err
	}
	if rep == nil {
		return nil, fmt.Errorf("server: compress stream ended without a report")
	}
	return rep, nil
}

// Reach answers one reachability query; concrete skips compression.
func (c *Client) Reach(ctx context.Context, name, src, dest string, concrete bool) (*bonsai.ReachResult, error) {
	q := url.Values{"src": {src}, "dest": {dest}}
	if concrete {
		q.Set("concrete", "1")
	}
	var res bonsai.ReachResult
	err := c.doIdem(ctx, http.MethodGet,
		"/v1/tenants/"+url.PathEscape(name)+"/reach?"+q.Encode(), nil, &res)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Routes fetches the converged routes for one destination class.
func (c *Client) Routes(ctx context.Context, name, dest string) (*bonsai.RoutesReport, error) {
	q := url.Values{"dest": {dest}}
	var rep bonsai.RoutesReport
	err := c.doIdem(ctx, http.MethodGet,
		"/v1/tenants/"+url.PathEscape(name)+"/routes?"+q.Encode(), nil, &rep)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// Roles counts behavioral router roles.
func (c *Client) Roles(ctx context.Context, name string, req bonsai.RolesRequest) (*bonsai.RolesReport, error) {
	q := url.Values{}
	if req.NoErase {
		q.Set("no_erase", "1")
	}
	if req.NoStatics {
		q.Set("no_statics", "1")
	}
	path := "/v1/tenants/" + url.PathEscape(name) + "/roles"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var rep bonsai.RolesReport
	if err := c.doIdem(ctx, http.MethodGet, path, nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Stats fetches one tenant's cache and apply-stream snapshot.
func (c *Client) Stats(ctx context.Context, name string) (*TenantStats, error) {
	var st TenantStats
	err := c.doIdem(ctx, http.MethodGet, "/v1/tenants/"+url.PathEscape(name)+"/stats", nil, &st)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Metrics fetches the raw Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
