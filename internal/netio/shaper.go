// Package netio provides the live-deployment substrate of the Bohr
// reproduction: a real TCP wire protocol (length-prefixed gob), token-
// bucket link shaping that emulates heterogeneous WAN uplinks on
// localhost, site worker daemons, and a controller that drives a genuine
// distributed map/combine/shuffle/reduce across them.
//
// The fluid simulator (package wan) backs the paper-scale experiments;
// netio exists so the system can also be exercised end-to-end over real
// sockets — the examples/livewan binary runs ten shaped "sites" in one
// process.
package netio

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Bucket is a token-bucket rate limiter: Take(n) reports how long the
// caller must wait before sending n bytes so that the long-run rate stays
// at Rate bytes/second with at most Burst bytes of slack.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // bucket capacity in bytes
	tokens float64
	last   time.Time
}

// NewBucket creates a bucket with the given rate (bytes/s) and burst
// capacity (bytes). Non-positive burst defaults to one second of rate.
func NewBucket(rate, burst float64) (*Bucket, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("netio: bucket rate must be positive, got %v", rate)
	}
	if burst <= 0 {
		burst = rate
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}, nil
}

// Take reserves n bytes and returns how long the caller must sleep before
// sending them. The bucket may go negative (the debt is repaid by later
// waits), which keeps large writes from stalling forever on small bursts.
func (b *Bucket) Take(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// ShapedConn wraps a net.Conn so writes are paced by an uplink bucket.
type ShapedConn struct {
	net.Conn
	up *Bucket
}

// Shape wraps conn so its writes pace through the uplink bucket up.
func Shape(conn net.Conn, up *Bucket) *ShapedConn {
	return &ShapedConn{Conn: conn, up: up}
}

// Write paces the write through the uplink bucket.
func (c *ShapedConn) Write(p []byte) (int, error) {
	if d := c.up.Take(len(p)); d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}
