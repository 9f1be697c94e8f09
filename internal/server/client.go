package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"sftree/internal/dynamic"
	"sftree/internal/nfv"
)

// Client is a typed HTTP client for the sftserve API, usable by other
// controllers or test harnesses. Each call is one round trip: a failed
// call is never repeated, so a caller that wants retries decides which
// failures are safe to repeat. A call always consumes its response
// before it returns, so the connection goes back to the transport's
// idle pool: a caller that makes its calls one after another holds one
// connection for as long as it lives.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets a server base URL ("http://host:port"). httpClient
// may be nil (http.DefaultClient).
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// APIError carries the server's error body and HTTP status.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// drainLimit bounds what a call reads of a response beyond what it
// needed (a JSON document's trailing newline, a body nobody asked for)
// so that the transport can reuse the connection: it does so only when
// the body was read to its end. A body with more left than this costs
// the bound and then the connection, never a stall.
const drainLimit = 64 << 10

// do makes one round trip with a JSON request body (none when in is
// nil) and decodes the body of a 2xx response into out (skipped when
// out is nil). Non-2xx responses become *APIError. On every exit what
// is left of the response body, up to drainLimit, is consumed before it
// closes.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode: %w", err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
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
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	buf := bodies.get()
	defer bodies.put(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("client: read: %w", err)
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("client: decode: %w", err)
	}
	return nil
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
