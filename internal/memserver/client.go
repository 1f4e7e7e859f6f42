package memserver

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client speaks the memctld HTTP control plane: health and metrics.
// Reads and writes go through BinaryClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8100".
	BaseURL string
	// HTTP is the transport; nil means a default client.
	HTTP *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: base, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// BackpressureError reports a Nack frame and how long the server asked
// us to back off.
type BackpressureError struct {
	RetryAfter time.Duration
	// Resp holds the partial accounting when a batch frame was Nacked
	// (nil otherwise).
	Resp *BatchResponse
	// ReadResp holds the partial accounting when a read-batch frame
	// was Nacked (nil otherwise).
	ReadResp *ReadBatchResponse
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("server backpressure, retry after %v", e.RetryAfter)
}

// Healthz returns nil while the server accepts traffic.
func (c *Client) Healthz() error {
	resp, err := c.httpClient().Get(c.BaseURL + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// Metrics scrapes /metrics and returns per-name totals summed over
// banks (see ParseMetrics).
func (c *Client) Metrics() (map[string]float64, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(string(text)), nil
}
