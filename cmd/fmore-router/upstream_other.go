//go:build !unix || aix

package main

import (
	"net/http"

	"fmore/internal/partition"
)

// newUpstream is partition.Transport where upstream.go's liveness check, a
// non-blocking MSG_PEEK on an idle connection, is not available.
func newUpstream() http.RoundTripper { return partition.Transport }
