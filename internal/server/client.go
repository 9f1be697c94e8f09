package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"sftree/internal/dynamic"
	"sftree/internal/nfv"
)

// Client is a typed HTTP client for the sftserve API, usable by other
// controllers or test harnesses. A call always consumes its response
// before it returns, so the connection goes back to the transport's
// idle pool: a caller that makes its calls one after another holds one
// connection for as long as it lives.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
}

// NewClient targets a server base URL ("http://host:port"). httpClient
// may be nil (http.DefaultClient). The client does not retry unless
// configured with WithRetry.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// RetryPolicy bounds the client's automatic retries. Only idempotent
// requests (GET, DELETE) are retried, and only on connection errors or
// 5xx responses: a failed POST may have reached the server, so
// repeating it could double-solve or double-admit. A DELETE whose
// retry answers 404 has succeeded: an earlier attempt removed the
// resource and lost its response.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (doubled per attempt,
	// jittered to half-to-full of the computed delay).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. A server Retry-After
	// header overrides the computed delay but is still capped here.
	MaxDelay time.Duration
}

// DefaultRetryPolicy retries up to 4 attempts with 50ms base backoff
// capped at 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// WithRetry returns a copy of the client that retries under p.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cc := *c
	cc.retry = p
	return &cc
}

// retryable reports whether a failed attempt may be repeated: the
// method must be idempotent and the failure transient (connection
// error, i.e. resp == nil, or a 5xx status).
func retryable(method string, resp *http.Response) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodDelete, http.MethodPut, http.MethodOptions:
	default:
		return false
	}
	return resp == nil || resp.StatusCode >= 500
}

// backoff computes the sleep before attempt n (1-based count of
// failures so far), honoring a Retry-After header when the server sent
// one. The exponential delay is jittered across [delay/2, delay].
func (p RetryPolicy) backoff(n int, resp *http.Response) time.Duration {
	if resp != nil {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				d := time.Duration(secs) * time.Second
				if p.MaxDelay > 0 && d > p.MaxDelay {
					d = p.MaxDelay
				}
				return d
			}
		}
	}
	d, limit := p.BaseDelay, p.MaxDelay
	if d <= 0 {
		return 0
	}
	if limit <= 0 {
		limit = math.MaxInt64
	}
	// The doubling saturates at the cap instead of shifting past it:
	// BaseDelay << 63 wraps to zero and a zero sleep is a tight loop.
	if shift := n - 1; shift >= 63 || d > limit>>shift {
		d = limit
	} else {
		d <<= shift
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleep waits d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// APIError carries the server's error body and HTTP status.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// do round-trips a JSON request and decodes a JSON response into out
// (skipped when out is nil). Non-2xx responses become *APIError.
// Idempotent requests are retried under the client's RetryPolicy on
// connection errors and 5xx responses, with jittered exponential
// backoff, honoring Retry-After and the caller's context.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var blob []byte
	if in != nil {
		var err error
		if blob, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode: %w", err)
		}
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := c.attempt(ctx, method, path, blob, out)
		if err == nil {
			return nil
		}
		if attempt > 1 && method == http.MethodDelete && IsNotFound(err) {
			// An earlier attempt may have committed and lost its response;
			// either way the resource is gone, which is what was asked.
			return nil
		}
		lastErr = err
		if attempt >= attempts || !retryable(method, resp) {
			return lastErr
		}
		if err := sleep(ctx, c.retry.backoff(attempt, resp)); err != nil {
			return fmt.Errorf("client: retry aborted: %w (last error: %v)", err, lastErr)
		}
	}
}

// drainLimit bounds what a call reads of a response beyond what it
// needed (a JSON document's trailing newline, a body nobody asked for)
// so that the transport can reuse the connection: it does so only when
// the body was read to its end. A body with more left than this costs
// the bound and then the connection, never a stall.
const drainLimit = 64 << 10

// attempt performs one round-trip and decodes the body of a 2xx
// response into out (skipped when out is nil). The returned response is
// non-nil only on HTTP-level errors (for retry classification). On
// every exit what is left of the body, up to drainLimit, is consumed
// before it closes.
func (c *Client) attempt(ctx context.Context, method, path string, blob []byte, out any) (*http.Response, error) {
	var body io.Reader
	if blob != nil {
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("client: request: %w", err)
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer func() {
		_, _ = io.CopyN(io.Discard, resp.Body, drainLimit) // best effort: the call's outcome is already decided
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return resp, &APIError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil, nil
	}
	buf := bodies.get()
	defer bodies.put(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("client: read: %w", err)
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return nil, fmt.Errorf("client: decode: %w", err)
	}
	return nil, nil
}

// Health checks the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Solve submits a stateless solve.
func (c *Client) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	var out SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Validate submits an embedding for server-side validation.
func (c *Client) Validate(ctx context.Context, req ValidateRequest) (*ValidateResponse, error) {
	var out ValidateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/validate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Admit creates a session on the server's network.
func (c *Client) Admit(ctx context.Context, task nfv.Task) (*AdmitResponse, error) {
	var out AdmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", task, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Release tears a session down.
func (c *Client) Release(ctx context.Context, id dynamic.SessionID) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/sessions/%d", id), nil, nil)
}

// SessionStats fetches the manager counters.
func (c *Client) SessionStats(ctx context.Context) (*dynamic.Stats, error) {
	var out dynamic.Stats
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IsNotFound reports whether err is an APIError with status 404.
func IsNotFound(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}
