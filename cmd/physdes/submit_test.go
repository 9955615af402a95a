package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"physdes/internal/serve"
)

// submitHarness mounts a real daemon behind httptest and returns its
// base URL for the submit client.
func submitHarness(t *testing.T, cfg serve.Config) string {
	t.Helper()
	s := serve.New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := s.Close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
	})
	return srv.URL
}

// TestSubmitPollToDone drives the full client path: upload, submit,
// poll to completion.
func TestSubmitPollToDone(t *testing.T) {
	url := submitHarness(t, serve.Config{Runners: 2})
	err := cmdSubmit([]string{
		"-server", url, "-tenant", "cli", "-db", "tpcd",
		"-n", "60", "-k", "4", "-seed", "5",
	})
	if err != nil {
		t.Fatalf("cmdSubmit: %v", err)
	}
}

// TestSubmitFollowSSE drives the -follow path (SSE round stream) with
// the full option surface forwarded to the job request.
func TestSubmitFollowSSE(t *testing.T) {
	url := submitHarness(t, serve.Config{Runners: 1})
	err := cmdSubmit([]string{
		"-server", url, "-db", "tpcd", "-n", "60", "-k", "4", "-seed", "5",
		"-alpha", "0.9", "-scheme", "delta", "-strat", "progressive",
		"-conservative", "-follow",
	})
	if err != nil {
		t.Fatalf("cmdSubmit -follow: %v", err)
	}
}

// TestSubmitErrors pins the client-visible failure modes: server-side
// rejection and an unreachable server.
func TestSubmitErrors(t *testing.T) {
	url := submitHarness(t, serve.Config{Runners: 1})
	err := cmdSubmit([]string{"-server", url, "-db", "nosuchdb", "-n", "10"})
	if err == nil || !strings.Contains(err.Error(), "upload workload") {
		t.Fatalf("bad db error = %v", err)
	}
	err = cmdSubmit([]string{"-server", "http://127.0.0.1:1", "-db", "tpcd", "-n", "10"})
	if err == nil {
		t.Fatal("unreachable server accepted")
	}
}

// TestSubmitNoWait covers the fire-and-forget path.
func TestSubmitNoWait(t *testing.T) {
	url := submitHarness(t, serve.Config{Runners: 1})
	err := cmdSubmit([]string{
		"-server", url, "-db", "tpcd", "-n", "30", "-k", "4", "-seed", "5", "-wait=false",
	})
	if err != nil {
		t.Fatalf("cmdSubmit -wait=false: %v", err)
	}
}
