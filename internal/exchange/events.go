package exchange

// Server-push round events. Each job fans its lifecycle transitions out to
// any number of subscribers; the HTTP front end exposes the stream as
// GET /v1/jobs/{id}/events (Server-Sent Events), which is how edge clients
// learn outcomes without long-polling.

// Event types of the per-job stream.
const (
	// EventRoundOpen announces that a round began collecting bids.
	EventRoundOpen = "round_open"
	// EventRoundClosed announces a completed round; Outcome carries the
	// result inline (or the round's error).
	EventRoundClosed = "round_closed"
	// EventJobClosed announces the job's end; the stream terminates after it.
	EventJobClosed = "job_closed"
)

// Event is one server-push notification of a job's lifecycle.
type Event struct {
	// Type is one of the Event* constants.
	Type string
	// Job and Round identify the transition (Round is zero for job_closed).
	Job   string
	Round int
	// Outcome is set on round_closed events. Subscribers may render or
	// retain it at any pace but must not mutate it — the job's history and
	// every other reader of the round share it (Outcome.Clone to change it).
	Outcome *RoundOutcome
}

// subBuffer is each subscriber's channel depth. A subscriber that falls this
// far behind is dropped (its channel closed) rather than blocking the round
// pipeline; the retained outcome history makes a reconnect with
// Last-Event-ID lossless, so dropping is safe.
const subBuffer = 64

// Subscription is one live event feed of a job.
type Subscription struct {
	// C delivers events in order. It is closed when the subscriber fell too
	// far behind (reconnect with the last seen round to resume), or after
	// Unsubscribe.
	C   chan Event
	job *Job
}

// Subscribe atomically snapshots the rounds the caller missed and registers
// a live subscriber, so no round can fall between replay and stream: every
// retained outcome with a round number strictly greater than afterRound is
// returned in past, and all later transitions arrive on the subscription
// channel. cur is the currently collecting round. On a closed job the
// subscription is nil — past is all the caller will ever get.
//
// Rounds older than the job's retained history (KeepOutcomes) cannot be
// replayed; resumption is lossless within the retention window.
//
// The returned outcomes are the retained values themselves: the caller
// renders them outside the job lock, at any pace — a round evicted
// meanwhile stays intact for as long as somebody holds it.
func (j *Job) Subscribe(afterRound int) (past []RoundOutcome, cur int, sub *Subscription) {
	j.mu.Lock()
	defer j.mu.Unlock()
	past, _ = j.hist.after(afterRound, 0)
	if j.closed.Load() {
		return past, j.round, nil
	}
	sub = &Subscription{C: make(chan Event, subBuffer), job: j}
	j.subs[sub] = struct{}{}
	return past, j.round, sub
}

// Unsubscribe detaches the subscription and closes its channel. Idempotent;
// safe to call on an already-dropped subscription.
func (j *Job) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dropLocked(sub)
}

// dropLocked removes a subscriber and closes its channel; callers hold j.mu.
func (j *Job) dropLocked(sub *Subscription) {
	if _, ok := j.subs[sub]; ok {
		delete(j.subs, sub)
		close(sub.C)
	}
}

// publishLocked fans one event out to every subscriber; callers hold j.mu.
// Sends never block: a subscriber with a full buffer is dropped, which the
// reader observes as a closed channel and recovers from by resubscribing
// with its last seen round.
func (j *Job) publishLocked(ev Event) {
	for sub := range j.subs {
		select {
		case sub.C <- ev:
		default:
			j.dropLocked(sub)
		}
	}
}
