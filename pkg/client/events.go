package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fmore/pkg/api"
)

// EventType discriminates round-stream events.
type EventType string

// Event types of the per-job stream.
const (
	// RoundOpen announces that a round began collecting bids.
	RoundOpen EventType = api.EventRoundOpen
	// RoundClosed announces a completed round; Outcome is set.
	RoundClosed EventType = api.EventRoundClosed
	// JobClosed announces the job's end; the watch terminates after it.
	JobClosed EventType = api.EventJobClosed
)

// Event is one server-push notification from a job's event stream.
type Event struct {
	Type  EventType
	Job   string
	Round int
	// Outcome carries the round's result inline on RoundClosed events.
	Outcome *Outcome
}

// WatchOptions configures WatchRounds.
type WatchOptions struct {
	// AfterRound resumes the stream past an already-seen round: every
	// retained round with a greater number is replayed before live events.
	AfterRound int
	// Buffer sizes the event channel (default 16).
	Buffer int
}

// Watch is a live subscription to a job's round events, kept alive across
// connection drops: on a disconnect it reconnects with Last-Event-ID set to
// the last round it delivered, and the exchange replays whatever was
// missed, so the consumer observes every retained round exactly once and in
// order.
type Watch struct {
	events chan Event
	done   chan struct{}
	err    error
}

// Events returns the ordered event channel. It is closed when the job
// closes, the watch's context ends, or a permanent error occurs — check Err
// afterwards.
func (w *Watch) Events() <-chan Event { return w.events }

// Err reports why the watch ended; nil after a clean job_closed or context
// cancellation. Valid once the event channel is closed.
func (w *Watch) Err() error {
	<-w.done
	return w.err
}

// WatchRounds subscribes to the job's server-push event stream
// (GET /v1/jobs/{id}/events). The initial connection is made synchronously
// so a missing job fails fast; after that a goroutine owns the stream,
// auto-reconnecting with Last-Event-ID resume and jittered backoff until
// ctx ends or the job closes.
func (c *Client) WatchRounds(ctx context.Context, jobID string, opts WatchOptions) (*Watch, error) {
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 16
	}
	w := &Watch{events: make(chan Event, buffer), done: make(chan struct{})}
	lastRound := opts.AfterRound
	body, err := c.connectEvents(ctx, jobID, lastRound)
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(w.done)
		defer close(w.events)
		attempt := 0
		for {
			finished, last, err := w.consume(ctx, body, jobID, lastRound)
			lastRound = last
			if finished || ctx.Err() != nil {
				return
			}
			if err != nil {
				// Stream broke mid-flight (server drop, network): resume.
				attempt++
			}
			if serr := sleepFor(ctx, backoffDelay(c.backoff, attempt)); serr != nil {
				return
			}
			body, err = c.connectEvents(ctx, jobID, lastRound)
			if err != nil {
				var ae *APIError
				if errors.As(err, &ae) && !transientStatus(ae.Status) {
					// The job is gone (or the request became invalid);
					// reconnecting cannot help.
					w.err = err
					return
				}
				if ctx.Err() != nil {
					return
				}
				body = nil
				continue
			}
			attempt = 0
		}
	}()
	return w, nil
}

// connectEvents opens one SSE connection resuming after lastRound. It sends
// through the same helper as do, so a stream aimed by a cold or stale map
// re-aims at the owner like any other call.
func (c *Client) connectEvents(ctx context.Context, jobID string, lastRound int) (io.ReadCloser, error) {
	headers := map[string]string{"Accept": "text/event-stream", "Cache-Control": "no-cache"}
	if lastRound > 0 {
		headers["Last-Event-ID"] = strconv.Itoa(lastRound)
	}
	resp, err := c.send(ctx, api.WatchEvents.Method, c.routedBase(api.WatchEvents, jobID), api.WatchEvents.URL(jobID), nil, headers)
	if err != nil {
		return nil, fmt.Errorf("client: connecting events stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return resp.Body, nil
}

// consume reads one SSE connection until it ends. finished is true when the
// watch is done for good (job_closed delivered, or ctx over); otherwise the
// caller reconnects from lastRound.
func (w *Watch) consume(ctx context.Context, body io.ReadCloser, jobID string, lastRound int) (finished bool, last int, err error) {
	if body == nil {
		return false, lastRound, errors.New("client: no events connection")
	}
	defer body.Close() //nolint:errcheck // read side
	r := bufio.NewReader(body)
	for {
		frame, rerr := readSSEFrame(r)
		if rerr != nil {
			return ctx.Err() != nil, lastRound, rerr
		}
		ev, ok := parseEvent(frame, jobID)
		if !ok {
			continue // heartbeat or unknown event type
		}
		select {
		case w.events <- ev:
		case <-ctx.Done():
			return true, lastRound, nil
		}
		if ev.Type == RoundClosed {
			lastRound = ev.Round
		}
		if ev.Type == JobClosed {
			return true, lastRound, nil
		}
	}
}

// sseFrame is one parsed SSE event block.
type sseFrame struct {
	id, event string
	data      []byte
}

// readSSEFrame reads lines until a dispatching blank line. Comment lines
// (heartbeats) are skipped; multiple data lines are joined with newlines
// per the SSE spec.
func readSSEFrame(r *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	seen := false
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return f, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			if seen {
				return f, nil
			}
			continue // blank line after a comment-only block
		}
		if line[0] == ':' {
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "id":
			f.id = string(value)
			seen = true
		case "event":
			f.event = string(value)
			seen = true
		case "data":
			if f.data != nil {
				f.data = append(f.data, '\n')
			}
			f.data = append(f.data, value...)
			seen = true
		case "retry":
			// Server reconnect hint; the client's own backoff governs.
		}
	}
}

// parseEvent decodes one frame into an Event.
func parseEvent(f sseFrame, jobID string) (Event, bool) {
	switch EventType(f.event) {
	case RoundClosed:
		var out Outcome
		if err := json.Unmarshal(f.data, &out); err != nil {
			return Event{}, false
		}
		return Event{Type: RoundClosed, Job: out.Job, Round: out.Round, Outcome: &out}, true
	case RoundOpen:
		var p api.RoundOpen
		if err := json.Unmarshal(f.data, &p); err != nil {
			return Event{}, false
		}
		return Event{Type: RoundOpen, Job: p.Job, Round: p.Round}, true
	case JobClosed:
		return Event{Type: JobClosed, Job: jobID}, true
	default:
		return Event{}, false
	}
}
