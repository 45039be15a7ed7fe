//go:build unix && !aix

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"fmore/internal/partition"
)

// The upstream's pool bound and dial settings are partition.Transport's:
// http.DefaultTransport's, with the per-host idle bound as large as the
// whole pool's.
const (
	upstreamMaxIdle     = 100
	upstreamDialTimeout = 30 * time.Second
	upstreamKeepAlive   = 30 * time.Second
	upstreamIdleTimeout = 90 * time.Second
)

// aLongTimeAgo is the deadline a cancelled request puts on its connection:
// a read or write blocked on it returns at once.
var aLongTimeAgo = time.Unix(1, 0)

// upstream is the router's http.RoundTripper. A forward to a plain-http
// replica writes its request and reads the answer on the calling goroutine,
// over a keep-alive connection from a per-host LIFO pool, where
// http.Transport hands every request to two goroutines per connection and
// back. What the router relied on from http.Transport is kept:
//
//   - An idle connection the replica has closed is never written to: before
//     reuse, a non-blocking MSG_PEEK must find it open and silent.
//   - A request that fails on a reused connection is sent once more, on a
//     fresh one, only under net/http's replay rule: no byte of it reached
//     the socket, or it is GET, HEAD, OPTIONS or TRACE, or it carries an
//     Idempotency-Key or X-Idempotency-Key — and its body can be rewound.
//     An unkeyed round close is never sent twice.
//   - Interim answers (1xx but 101) are skipped; the request is not mutated.
//   - Cancelling the request's context tears the connection down, so a
//     client that leaves an event stream ends the replica's request too.
//   - https replicas, and replicas the environment's proxy settings send
//     through a proxy, go through partition.Transport, the one path that
//     speaks TLS, h2 and CONNECT.
//
// The answer's body hands the connection back to the pool when it is read
// to its end and the answer allows keep-alive; closing it early, or a read
// error, closes the connection. The body must not be closed while another
// goroutine reads it: cancel the request's context instead.
type upstream struct {
	dialer net.Dialer

	mu    sync.Mutex
	idle  map[string][]*upConn // by host:port, the most recently returned last
	nidle int
}

func newUpstream() http.RoundTripper {
	return &upstream{
		dialer: net.Dialer{Timeout: upstreamDialTimeout, KeepAlive: upstreamKeepAlive},
		idle:   make(map[string][]*upConn),
	}
}

// upConn is one pooled connection to a replica. Its Write counts the bytes
// that reached the socket, which the replay rule asks about.
type upConn struct {
	net.Conn
	addr    string
	br      *bufio.Reader
	bw      *bufio.Writer // writes through upConn.Write
	written int64
	idleAt  time.Time

	raw    syscall.RawConn
	peek   func(fd uintptr) bool // alive's probe, built once per connection
	open   bool                  // what peek found
	buf    [1]byte
	expire func() // what a cancelled request context runs
}

func (c *upConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// alive reports whether the replica left c open with nothing to read. A past
// read deadline cannot answer that — Go returns the timeout without asking
// the kernel — so it peeks without blocking: EAGAIN means open and silent;
// data (a stray answer) or EOF (the replica hung up) means c is done.
func (c *upConn) alive() bool {
	if c.br.Buffered() > 0 {
		return false
	}
	c.open = false
	return c.raw.Read(c.peek) == nil && c.open
}

func (u *upstream) dial(ctx context.Context, addr string) (*upConn, error) {
	nc, err := u.dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	sc, ok := nc.(syscall.Conn)
	if !ok {
		nc.Close()
		return nil, fmt.Errorf("router upstream: %T has no file descriptor", nc)
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("router upstream: %w", err)
	}
	c := &upConn{Conn: nc, addr: addr, br: bufio.NewReader(nc), raw: raw}
	c.bw = bufio.NewWriter(c)
	c.peek = func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), c.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		c.open = err == syscall.EAGAIN
		return true
	}
	c.expire = func() { _ = nc.SetDeadline(aLongTimeAgo) }
	return c, nil
}

// get pops the most recently returned live connection to addr, or dials one;
// reused says which.
func (u *upstream) get(ctx context.Context, addr string) (c *upConn, reused bool, err error) {
	now := time.Now()
	for {
		u.mu.Lock()
		idle := u.idle[addr]
		if len(idle) == 0 {
			u.mu.Unlock()
			break
		}
		c = idle[len(idle)-1]
		idle[len(idle)-1] = nil
		u.idle[addr] = idle[:len(idle)-1]
		u.nidle--
		u.mu.Unlock()
		if now.Sub(c.idleAt) < upstreamIdleTimeout && c.alive() {
			return c, true, nil
		}
		c.Close()
	}
	c, err = u.dial(ctx, addr)
	return c, false, err
}

// put returns c to the pool, first retiring the host's connections that sat
// idle past the timeout (the oldest, at the bottom); a full pool closes c.
func (u *upstream) put(c *upConn) {
	c.idleAt = time.Now()
	u.mu.Lock()
	defer u.mu.Unlock()
	idle := u.idle[c.addr]
	stale := 0
	for stale < len(idle) && c.idleAt.Sub(idle[stale].idleAt) >= upstreamIdleTimeout {
		idle[stale].Close()
		stale++
	}
	if stale > 0 {
		n := copy(idle, idle[stale:])
		clear(idle[n:])
		idle = idle[:n]
		u.nidle -= stale
	}
	if u.nidle >= upstreamMaxIdle {
		u.idle[c.addr] = idle
		c.Close()
		return
	}
	u.idle[c.addr] = append(idle, c)
	u.nidle++
}

// finish ends the round trip on c: back to the pool when the answer allows
// keep-alive and the request's context never fired, closed otherwise.
func (u *upstream) finish(c *upConn, stop func() bool, keep bool) {
	if stop() && keep {
		u.put(c)
		return
	}
	c.Close()
}

func (u *upstream) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		return partition.Transport.RoundTrip(req)
	}
	if proxy, err := partition.Transport.Proxy(req); proxy != nil || err != nil {
		return partition.Transport.RoundTrip(req)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx := req.Context()
	for retried := false; ; retried = true {
		c, reused, err := u.get(ctx, addr)
		if err != nil {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, err
		}
		resp, err := u.exchange(ctx, c, req)
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if retried || !reused || (c.written > 0 && !replayable(req)) {
			return nil, err
		}
		if req = rewind(req); req == nil {
			return nil, err
		}
	}
}

// exchange writes req on c and reads its final answer. On an error c is
// closed; on success the answer's body owns c.
func (u *upstream) exchange(ctx context.Context, c *upConn, req *http.Request) (*http.Response, error) {
	stop := stopped
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.expire)
	}
	c.written = 0
	err := req.Write(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	var resp *http.Response
	for err == nil {
		resp, err = http.ReadResponse(c.br, req)
		if err != nil || resp.StatusCode < 100 || resp.StatusCode > 199 || resp.StatusCode == http.StatusSwitchingProtocols {
			break
		}
		// An interim answer: the final one follows on the same connection.
	}
	if err != nil {
		stop()
		c.Close()
		return nil, err
	}
	keep := !resp.Close && !req.Close && resp.StatusCode != http.StatusSwitchingProtocols
	if resp.Body == http.NoBody {
		u.finish(c, stop, keep)
		return resp, nil
	}
	resp.Body = &upBody{u: u, c: c, body: resp.Body, stop: stop, keep: keep}
	return resp, nil
}

// stopped stands in for context.AfterFunc's stop on a context that is never
// cancelled.
func stopped() bool { return true }

// replayable is net/http's rule for sending again a request whose bytes may
// have reached the replica: idempotent by method or by key.
func replayable(req *http.Request) bool {
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	return req.Header["Idempotency-Key"] != nil || req.Header["X-Idempotency-Key"] != nil
}

// rewind returns req with a fresh body for a second attempt, or nil when its
// body cannot be had again.
func rewind(req *http.Request) *http.Request {
	if req.Body == nil || req.Body == http.NoBody {
		return req
	}
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	again := *req
	again.Body = body
	return &again
}

// upBody is an answer's body, holding its connection until the round trip
// is over.
type upBody struct {
	u    *upstream
	c    *upConn // nil once the round trip is over
	body io.ReadCloser
	stop func() bool
	keep bool
}

func (b *upBody) Read(p []byte) (int, error) {
	n, err := b.body.Read(p)
	if err != nil && b.c != nil {
		c := b.c
		b.c = nil
		if err == io.EOF {
			b.u.finish(c, b.stop, b.keep)
		} else {
			b.stop()
			c.Close()
		}
	}
	return n, err
}

// Close before the end closes the connection first: the inner body's Close
// reads what is left, which on an event stream never ends.
func (b *upBody) Close() error {
	if c := b.c; c != nil {
		b.c = nil
		c.Close()
		b.stop()
	}
	return b.body.Close()
}
