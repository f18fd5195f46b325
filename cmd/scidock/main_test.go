package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/parallel"
)

func TestRunSmokeCampaign(t *testing.T) {
	if err := run("ad4", 2, 1, 4, "smoke", 1, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithMonitorAndQuery(t *testing.T) {
	err := run("vina", 2, 1, 4, "smoke", 1, true, true, true,
		"SELECT count(*) FROM ddocking")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAdaptiveMode(t *testing.T) {
	if err := run("adaptive", 3, 1, 4, "smoke", 1, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("nope", 2, 1, 4, "smoke", 1, true, false, false, ""); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run("ad4", 2, 1, 4, "nope", 1, true, false, false, ""); err == nil {
		t.Error("bad effort accepted")
	}
	if err := run("ad4", 0, 1, 4, "smoke", 1, true, false, false, ""); err == nil {
		t.Error("zero receptors accepted")
	}
	if err := run("ad4", 2, 1, 4, "smoke", 1, true, false, false, "NOT SQL"); err == nil {
		t.Error("bad SQL accepted")
	}
	if err := run("ad4", 2, 1, 0, "smoke", 1, true, false, false, ""); err == nil {
		t.Error("zero cores accepted")
	}
}

// TestValidateFlagsUpFront pins the fast-fail contract: bad
// enumerations are rejected with usage messages listing the valid
// values, before any dataset or engine work happens.
func TestValidateFlagsUpFront(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{validateFlags("nope", 2, 1, 4, "smoke"), "valid values are ad4, vina, adaptive"},
		{validateFlags("ad4", 2, 1, 4, "nope"), "valid values are smoke, campaign, quick"},
		{validateFlags("ad4", 2, 1, -3, "smoke"), "-cores"},
		{validateFlags("ad4", 0, 1, 4, "smoke"), "-receptors"},
		{validateFlags("ad4", 2, 0, 4, "smoke"), "-ligands"},
	}
	for i, c := range cases {
		if c.err == nil {
			t.Errorf("case %d: accepted", i)
			continue
		}
		if !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, c.err, c.want)
		}
	}
	if err := validateFlags("vina", 2, 1, 4, "quick"); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

// TestNewServerTimeouts pins the served surface's connection deadlines:
// a slow request body and an idle keep-alive connection are both cut
// off, and the handler is the campaign API.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer(campaign.NewManager(parallel.NewPool(1), campaign.Limits{}))
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, readHeaderTimeout},
		{"ReadTimeout", srv.ReadTimeout, readTimeout},
		{"IdleTimeout", srv.IdleTimeout, idleTimeout},
	} {
		if c.got != c.want || c.got <= 0 {
			t.Errorf("%s = %v, want %v (> 0)", c.name, c.got, c.want)
		}
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Errorf("ReadTimeout %v is shorter than ReadHeaderTimeout %v", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
}

// TestServeSmoke drives the resident service end to end in-process:
// start, submit a tiny campaign over HTTP, poll it to completion, run
// a provenance query, then shut down cleanly via context cancellation
// (the code path SIGTERM takes).
func TestServeSmoke(t *testing.T) {
	addrCh := make(chan string, 1)
	serveListening = func(addr string) { addrCh <- addr }
	defer func() { serveListening = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, "127.0.0.1:0") }()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	}

	body, err := json.Marshal(map[string]any{
		"mode": "ad4", "receptors": 2, "ligands": 1, "cores": 4,
		"effort": "smoke", "seed": 3, "disable_failures": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID int64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == 0 {
		t.Fatalf("submit: status %d, id %d", resp.StatusCode, submitted.ID)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var state string
	for time.Now().Before(deadline) {
		r, err := http.Get(fmt.Sprintf("%s/campaigns/%d", base, submitted.ID))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		state = st.State
		if state == "DONE" || state == "FAILED" || state == "CANCELLED" {
			break
		}
		runtime.Gosched()
	}
	if state != "DONE" {
		t.Fatalf("campaign ended in state %q, want DONE", state)
	}

	q, err := http.Post(fmt.Sprintf("%s/campaigns/%d/query", base, submitted.ID),
		"application/json", strings.NewReader(`{"sql": "SELECT count(*) FROM ddocking"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if len(qr.Rows) != 1 || qr.Rows[0][0] == "0" {
		t.Errorf("served query rows = %v, want one nonzero count", qr.Rows)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("server did not shut down within a minute")
	}
}
