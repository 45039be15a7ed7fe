// fmore-loadgen is the capacity-proof harness for fmore-exchange: an
// open-loop bid-submit driver that measures what a replica actually
// sustains, where it breaks, and whether admission control keeps round
// closes healthy while the exchange sheds.
//
// Usage against a running exchange (start it with admission limits if you
// want to see shedding):
//
//	fmore-loadgen -target http://localhost:8780 -scenario baseline -rate 500
//	fmore-loadgen -target http://localhost:8780 -scenario spike
//	fmore-loadgen -target http://localhost:8780 -scenario soak
//	fmore-loadgen -target http://localhost:8780 -scenario stress
//
// Scenarios:
//
//	baseline  fixed -rate for -duration; the steady-state numbers
//	spike     1/4 rate, then a 4x burst, then back; proves recovery
//	soak      -rate for 3x -duration; drift and leak check
//	stress    step-ramp x1.5 per step until served < 90% of the step's
//	          target rate (catches shedding and saturation alike);
//	          prints the last sustained step and the breaking point
//
// Every scenario creates its own job, runs a closer goroutine that closes
// rounds continuously (closes must never shed — any 429 on a close fails
// the run), samples GET /v1/healthz on a 250ms cadence, and prints one
// RESULT line per step:
//
//	RESULT scenario=spike step=burst offered_qps=2000 served_qps=1423 ...
//
// Exit status is non-zero if any round close failed or stalled, which is
// the invariant the admission subsystem exists to protect.
package main

import "log"

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}
