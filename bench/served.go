package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
)

// The statements connection B cycles through are the paper's two
// queries (Figures 10 and 11) and three shapes an operator watching a
// campaign would send.
const (
	topFEBSQL  = "SELECT receptor, ligand, feb FROM ddocking ORDER BY feb LIMIT 5"
	groupBySQL = "SELECT status, count(*) FROM hactivation GROUP BY status"
	pointSQL   = "SELECT taskid, status FROM hactivation WHERE taskid = 1"
)

var statements = []string{experiments.Query1SQL, experiments.Query2SQL, topFEBSQL, groupBySQL, pointSQL}

const (
	pollEvery  = 5 * time.Millisecond
	queryEvery = 40 * time.Millisecond
)

// server is the served deployment under test: a Manager behind its
// HTTP handler on a loopback listener, holding one finished resident
// campaign whose provenance the queries read.
type server struct {
	mgr      *campaign.Manager
	srv      *http.Server
	done     chan struct{}
	base     string
	resident int64
	// expected holds, per statement, the resident campaign's answer as
	// the handler must render it; its database no longer changes.
	expected map[string][][]string
}

func startServer(rep *report, resident campaign.Spec) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		mgr:      campaign.NewManager(nil, campaign.Limits{}),
		done:     make(chan struct{}),
		base:     "http://" + ln.Addr().String(),
		expected: map[string][][]string{},
	}
	s.srv = &http.Server{Handler: campaign.NewHandler(s.mgr)}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			rep.check(false, "http server: %v", err)
		}
	}()
	id, err := s.mgr.Submit(resident)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("resident campaign: %w", err)
	}
	camp, err := s.mgr.Wait(context.Background(), id)
	rep.check(err == nil, "resident campaign: %v", err)
	digestCampaign(rep, camp, "resident campaign")
	s.resident = id
	for _, sql := range statements {
		res, err := s.mgr.Query(id, sql)
		if !rep.check(err == nil, "resident query: %v", err) {
			continue
		}
		rows := make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			for _, v := range r {
				rows[i] = append(rows[i], fmt.Sprint(v))
			}
		}
		s.expected[sql] = rows
	}
	return s, nil
}

// close stops the listener and drains the manager, returning once both
// have no goroutine left running.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: http shutdown:", err)
	}
	<-s.done
	s.mgr.Shutdown(ctx)
}

// client is one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes the JSON reply into out,
// returning the round-trip time in milliseconds.
func (c *client) call(method, path string, body, out any) (float64, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return ms, err
	}
	if resp.StatusCode/100 != 2 {
		return ms, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return ms, json.Unmarshal(raw, out)
}

type queryReply struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// pace is the open-loop generator: tick k is due at start+k·period
// whatever happened to earlier ticks. Latency is timed from the due
// instant, so a reply that stalls the connection also charges the wait
// it imposes on the ticks queued behind it, and lag records how late
// each tick was actually sent. wait blocks until the instant and
// reports false once the run is over.
func pace(start time.Time, period time.Duration, now func() time.Time, wait func(time.Time) bool, do func(k int)) (latMS, lagMS []float64) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !wait(due) {
			return latMS, lagMS
		}
		lagMS = append(lagMS, float64(now().Sub(due).Nanoseconds())/1e6)
		do(k)
		latMS = append(latMS, float64(now().Sub(due).Nanoseconds())/1e6)
	}
}

// traffic is what the two connections measured over one session.
type traffic struct {
	submitMS, statusMS []float64
	queryMS, lagMS     []float64
}

// queryLoad runs connection B until stop closes: one statement every
// queryEvery, alternating between the resident campaign and the newest
// one. It returns only after its last request has completed.
func (s *server) queryLoad(rep *report, newest *atomic.Int64, stop <-chan struct{}, tf *traffic) {
	c := newClient(s.base)
	defer c.close()
	wait := func(until time.Time) bool {
		select {
		case <-stop:
			return false
		case <-time.After(time.Until(until)):
			return true
		}
	}
	tf.queryMS, tf.lagMS = pace(time.Now(), queryEvery, time.Now, wait, func(k int) {
		sql := statements[k%len(statements)]
		id := s.resident
		if k%2 == 1 {
			id = newest.Load()
		}
		var reply queryReply
		_, err := c.call("POST", fmt.Sprintf("/campaigns/%d/query", id), map[string]string{"sql": sql}, &reply)
		if !rep.check(err == nil && len(reply.Columns) > 0, "query on campaign %d: %v", id, err) {
			return
		}
		if id == s.resident {
			rep.check(fmt.Sprint(reply.Rows) == fmt.Sprint(s.expected[sql]), "resident query answer changed: %.40q", sql)
		}
	})
}

// serveOne is connection A's operation: submit a campaign over HTTP
// and poll its status every pollEvery until it is DONE.
func (s *server) serveOne(rep *report, c *client, spec campaign.Spec, newest *atomic.Int64, tf *traffic) campSample {
	var sub struct {
		ID int64 `json:"id"`
	}
	t0 := time.Now()
	ms, err := c.call("POST", "/campaigns", spec, &sub)
	tf.submitMS = append(tf.submitMS, ms)
	if !rep.check(err == nil, "http submit: %v", err) {
		return campSample{}
	}
	newest.Store(sub.ID)
	var st campaign.Status
	for {
		ms, err := c.call("GET", fmt.Sprintf("/campaigns/%d", sub.ID), nil, &st)
		tf.statusMS = append(tf.statusMS, ms)
		if !rep.check(err == nil, "http status: %v", err) || st.State.Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	wall := time.Since(t0).Seconds()
	rep.check(st.State == campaign.StateDone, "served campaign %d ended %s: %s", sub.ID, st.State, st.Error)
	// The digest reads the campaign in-process, outside the timed part.
	camp, err := s.mgr.Wait(context.Background(), sub.ID)
	rep.check(err == nil, "served campaign %d: %v", sub.ID, err)
	sample := digestCampaign(rep, camp, fmt.Sprintf("served campaign %d", sub.ID))
	sample.wallS = wall
	return sample
}

// idleProbes times the served surface with no campaign running: the
// liveness endpoint, and what HTTP adds to a point lookup over calling
// the Manager directly.
func (s *server) idleProbes(rep *report, n int) {
	c := newClient(s.base)
	defer c.close()
	var health, overHTTP, direct []float64
	path := fmt.Sprintf("/campaigns/%d/query", s.resident)
	for i := 0; i < n; i++ {
		var h map[string]any
		ms, err := c.call("GET", "/healthz", nil, &h)
		rep.check(err == nil, "healthz: %v", err)
		health = append(health, ms*1e3)
		var reply queryReply
		ms, err = c.call("POST", path, map[string]string{"sql": pointSQL}, &reply)
		rep.check(err == nil, "idle query: %v", err)
		overHTTP = append(overHTTP, ms*1e3)
		t0 := time.Now()
		_, err = s.mgr.Query(s.resident, pointSQL)
		direct = append(direct, float64(time.Since(t0).Nanoseconds())/1e3)
		rep.check(err == nil, "direct query: %v", err)
	}
	rep.dist("http.healthz_us", health)
	rep.set("http.query_overhead_us", median(overHTTP)-median(direct))
}
