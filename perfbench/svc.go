package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/custodyd"
	"repro/internal/xrand"
)

// The closed-loop service workload: tenants behave like Spark drivers that
// wait for their jobs, so each keeps at most svcWindow jobs outstanding and
// the service's speed sets the load it receives.
const (
	svcTenants = 4
	svcWindow  = 2
	// svcCycles is the length of one episode. The status page and the
	// digest grow with the jobs a service has seen, so every episode
	// replays the same number of cycles from a fresh server.
	svcCycles = 100
	// svcInputs is how many traffic inputs a run cycles through. One
	// episode's few hundred jobs leave the mix of workloads to chance;
	// cycling through several averages it out of the run's figures.
	svcInputs = 4
	// walFile is the intent log's name inside the state directory.
	walFile = "wal.jsonl"
)

var svcKinds = []string{"WordCount", "Sort", "PageRank"}

// svcStatus is the part of GET /v1/status the tenants read.
type svcStatus struct {
	Seq           uint64 `json:"seq"`
	Digest        string `json:"digest"`
	JobsSubmitted int    `json:"jobs_submitted"`
	JobsFinished  int    `json:"jobs_finished"`
	Idle          bool   `json:"idle"`
	Shed          int    `json:"shed"`
	Tenants       []struct {
		Tenant int `json:"tenant"`
		Done   int `json:"done"`
	} `json:"tenants"`
}

func (s *svcStatus) done(tenant int) int {
	for _, t := range s.Tenants {
		if t.Tenant == tenant {
			return t.Done
		}
	}
	return 0
}

// svcClient is the tenants' one HTTP connection.
type svcClient struct {
	base     string
	c        *http.Client
	requests int
	non2xx   int
}

// call sends one request with body (when not nil) as JSON and returns the
// status code and the response body. Any non-2xx code counts as a failed
// operation.
func (c *svcClient) call(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	c.requests++
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close() //custody:ignore errdrop closing a fully read response body cannot lose data
	if resp.StatusCode/100 != 2 {
		c.non2xx++
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// status reads GET /v1/status into st.
func (c *svcClient) status(st *svcStatus) error {
	_, data, err := c.call("GET", "/v1/status", nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, st); err != nil {
		return fmt.Errorf("GET /v1/status: %w", err)
	}
	return nil
}

// svcEpisode boots a tickless custodyd server with its fsync'ing intent
// log in a fresh directory under tmpRoot, registers the tenants over HTTP
// (set-up), and times svcCycles cycles of GET /v1/status, one POST
// /v1/submit-job per tenant under its window, and RoundOnce. It then shuts
// the server down, which drains every accepted job, and checks the final
// state.
func svcEpisode(seed uint64, input int, rec *recorder, tmpRoot string) (ep episode, err error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(tmpRoot, "custodyd-")
	if err != nil {
		return ep, fmt.Errorf("svc: %w", err)
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()

	// The service runs its default deployment, block placement included;
	// the seed generates the tenants' traffic. Over the service's 16 nodes
	// and ten blocks the placement alone moves locality between 0.68 and
	// 0.81 from seed to seed.
	var svc *custodyd.Service
	cfg := custodyd.ServerConfig{Dir: dir, Service: custodyd.DefaultConfig()}
	cfg.Service.BootHook = func(s *custodyd.Service) { svc = s }
	var launches *launchCounter
	if rec != nil {
		launches = &launchCounter{}
		cfg.Service.Tracer = launches
	}
	srv, err := custodyd.NewServer(cfg)
	if err != nil {
		return ep, fmt.Errorf("svc: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	cl := &svcClient{base: ts.URL, c: &http.Client{Transport: transport}}
	for i := 0; i < svcTenants; i++ {
		if _, _, err := cl.call("POST", "/v1/register-app", map[string]string{"name": fmt.Sprintf("tenant-%d", i)}); err != nil {
			return ep, fmt.Errorf("svc: %w", err)
		}
	}
	ep.setup = time.Since(t0).Seconds()

	// The tenants' choices are the generated input: which workload each
	// job runs and which preloaded file it reads.
	rng := xrand.New(seed).Fork(fmt.Sprintf("tenants:%d", input))
	nFiles := len(cfg.Service.Files)
	accepted := make([]int, svcTenants)
	var st svcStatus
	objs0, bytes0 := allocCounters()
	for c := 0; c < svcCycles; c++ {
		t := time.Now()
		rec.do("cycle", func() { err = svcCycle(cl, srv, rec, rng, nFiles, accepted, &st) })
		if err != nil {
			return ep, fmt.Errorf("svc: %w", err)
		}
		ep.ops = append(ep.ops, msSince(t))
	}
	objs1, bytes1 := allocCounters()
	ep.heap = liveHeap()

	var final svcStatus
	var page []byte
	aside(func() {
		if err = cl.status(&st); err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if serr := srv.Shutdown(ctx); serr != nil {
			ep.problemf("Server.Shutdown: %v", serr)
		}
		if err = cl.status(&final); err != nil {
			return
		}
		_, page, err = cl.call("GET", "/metrics", nil)
	})
	if err != nil {
		return ep, fmt.Errorf("svc: %w", err)
	}

	ep.jobs = st.JobsFinished
	total := 0
	for _, n := range accepted {
		total += n
	}
	unfinished := final.JobsSubmitted - final.JobsFinished
	if !final.Idle || unfinished != 0 {
		ep.problemf("%d of %d jobs unfinished after the drain", unfinished, final.JobsSubmitted)
	}
	if final.JobsSubmitted != total {
		ep.problemf("service reports %d jobs submitted, tenants had %d accepted", final.JobsSubmitted, total)
	}
	if n := eofLines(page); n != 1 {
		ep.problemf("/metrics has %d \"# EOF\" lines, want exactly 1", n)
	}
	// Shutdown took the server's lock, so the service is safe to read.
	if err := svc.Driver().Audit(); err != nil {
		ep.problemf("Driver.Audit: %v", err)
	}
	ep.attempted = cl.requests + final.JobsSubmitted
	ep.failed = cl.non2xx + unfinished
	col := svc.Driver().Collector()
	ep.locality = mean(col.LocalityPerJob())
	ep.digest = final.Digest

	if rec != nil {
		fi, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			return ep, fmt.Errorf("svc: intent log: %w", err)
		}
		sp := rec.stats(rec.run)
		ep.layers = map[string]float64{
			"http.submit_p50_ms":        median(sp.get("http.submit").Sample),
			"http.status_p50_ms":        median(sp.get("http.status").Sample),
			"custodyd.round_busy_s":     sp.get("custodyd.round").Busy.Seconds(),
			"custodyd.wal_ops":          float64(final.Seq),
			"custodyd.wal_bytes":        float64(fi.Size()),
			"custodyd.shed":             float64(final.Shed),
			"event.events":              float64(svc.Driver().Engine().Executed()),
			"manager.reallocations":     float64(col.Reallocations),
			"driver.task_launches":      float64(launches.launches),
			"driver.remote_launches":    float64(launches.remote),
			"scheduler.delay_mean_s":    mean(col.SchedulerDelays()),
			"scheduler.local_task_frac": col.PctLocalTasks(),
			"sim.jct_mean_s":            mean(col.JobCompletionTimes()),
			"go.allocs":                 float64(objs1 - objs0),
			"go.alloc_bytes":            float64(bytes1 - bytes0),
		}
	}
	return ep, nil
}

// svcCycle is one closed-loop cycle: read the status, submit a job for
// every tenant under its window, run a round.
func svcCycle(cl *svcClient, srv *custodyd.Server, rec *recorder, rng *xrand.Rand, nFiles int, accepted []int, st *svcStatus) error {
	var err error
	rec.do("http.status", func() { err = cl.status(st) })
	if err != nil {
		return err
	}
	for i := range accepted {
		if accepted[i]-st.done(i) >= svcWindow {
			continue
		}
		req := map[string]any{"tenant": i, "workload": svcKinds[rng.Intn(len(svcKinds))], "file": rng.Intn(nFiles)}
		var code int
		rec.do("http.submit", func() { code, _, err = cl.call("POST", "/v1/submit-job", req) })
		if err != nil {
			return err
		}
		if code == http.StatusAccepted {
			accepted[i]++
		}
	}
	rec.do("custodyd.round", srv.RoundOnce)
	return nil
}

// eofLines counts "# EOF" terminator lines in an OpenMetrics page.
func eofLines(page []byte) int {
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "# EOF" {
			n++
		}
	}
	return n
}
