package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerBounded pins the listener's connection limits: every read
// side is bounded, and the write side is not — a step request legitimately
// runs up to the watchdog's step deadline.
func TestHTTPServerBounded(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("unbounded reads: header %v, read %v, idle %v", s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
	}
	if s.MaxHeaderBytes <= 0 {
		t.Fatalf("MaxHeaderBytes = %d, want a positive bound", s.MaxHeaderBytes)
	}
	if s.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none (it would cut long steps)", s.WriteTimeout)
	}
}
