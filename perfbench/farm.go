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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nowomp/internal/farm"
	"nowomp/internal/scenario"
)

// The farm workload serves the seeded job sequence through an
// in-process farm server reached over loopback HTTP. nproc clients,
// each holding one connection, drive it closed-loop: a client submits
// its next job only when the previous one has finished. Every pass
// starts a fresh server, so each pass simulates the same distinct specs
// and serves the same share of repeats from the cache.

// farmSpec is one distinct spec of the sequence, normalized.
type farmSpec struct {
	spec scenario.Spec
	hash string
	body []byte
}

// farmPass is one pass: a started server and the sequence to serve.
type farmPass struct {
	specs  []farmSpec
	jobs   []int
	refs   *refCache
	seen   map[string][]byte // result bytes per hash, first pass onwards
	server *farm.Server
	http   *http.Server
	base   string
	served sync.WaitGroup

	views     []farm.JobView
	latencies []float64
	errs      []error
}

func setupFarm(e *env, seed int64, refs *refCache, seen map[string][]byte) (pass, error) {
	plan := farmPlanFor(seed)
	p := &farmPass{jobs: plan.jobs, refs: refs, seen: seen}
	for _, s := range plan.specs {
		t0 := time.Now()
		sp := e.tr.begin("scenario.Normalize", "", e.root)
		norm, err := s.Normalize()
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("setup farm spec %s: %w", s.Kernel, err)
		}
		sp = e.tr.begin("scenario.Hash", "", e.root)
		hash, err := norm.Hash()
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		e.sample("scenario.normalize_us", time.Since(t0).Seconds()*1e6)
		e.tr.describe(hash, norm)
		body, err := json.Marshal(norm)
		if err != nil {
			return nil, err
		}
		p.specs = append(p.specs, farmSpec{spec: norm, hash: hash, body: body})
	}

	sp := e.tr.begin("farm.NewServer", "", e.root)
	defer e.tr.end(sp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("setup farm: %w", err)
	}
	p.server = farm.NewServer(farm.Limits{Workers: runtime.NumCPU(), QueueCap: 4 * farmJobs})
	p.http = &http.Server{Handler: p.server.Handler()}
	p.base = "http://" + ln.Addr().String()
	p.served.Add(1)
	go func() {
		defer p.served.Done()
		p.http.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	// Ready means /v1/stats answers.
	if _, err := getJSON[farm.Stats](http.DefaultClient, p.base+"/v1/stats"); err != nil {
		p.close()
		return nil, fmt.Errorf("setup farm: %w", err)
	}
	return p, nil
}

// run serves the whole sequence: nproc closed-loop clients take the
// next job index until the sequence is exhausted.
func (p *farmPass) run(e *env) {
	n := len(p.jobs)
	p.views = make([]farm.JobView, n)
	p.latencies = make([]float64, n)
	p.errs = make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := p.specs[p.jobs[i]]
				sp := e.tr.begin("farm.job", s.hash, e.root)
				t0 := time.Now()
				p.views[i], p.errs[i] = submit(client, p.base, s.body)
				p.latencies[i] = time.Since(t0).Seconds()
				e.tr.end(sp)
			}
		}()
	}
	wg.Wait()
}

// submit posts one job and waits for its terminal state. Any answer but
// 200 or 202 — a 429 included — fails the job.
func submit(client *http.Client, base string, body []byte) (farm.JobView, error) {
	resp, err := client.Post(base+"/v1/jobs?wait=true", "application/json", bytes.NewReader(body))
	if err != nil {
		return farm.JobView{}, err
	}
	v, err := decodeJSON[farm.JobView](resp)
	for err == nil && v.State != "done" && v.State != "failed" {
		v, err = getJSON[farm.JobView](client, base+"/v1/jobs/"+v.ID+"?wait=true")
	}
	if err == nil && v.State == "failed" {
		err = fmt.Errorf("job %s failed: %s", v.ID, v.Error)
	}
	return v, err
}

func getJSON[T any](client *http.Client, url string) (T, error) {
	resp, err := client.Get(url)
	if err != nil {
		var zero T
		return zero, err
	}
	return decodeJSON[T](resp)
}

func decodeJSON[T any](resp *http.Response) (T, error) {
	var v T
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, fmt.Errorf("%s %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status)
	}
	return v, json.Unmarshal(data, &v)
}

// finish fetches every distinct result once, checks it against the
// sequential reference and against the bytes earlier passes got for
// the same hash, and turns each served job into a job record.
func (p *farmPass) finish(e *env) passOut {
	out := passOut{latencies: p.latencies, gauges: map[string]float64{}}
	results := make([]scenario.Result, len(p.specs))
	checks := make([]error, len(p.specs))
	for i, s := range p.specs {
		results[i], checks[i] = p.check(e, s)
	}
	simulated := make([]bool, len(p.specs))
	for i, si := range p.jobs {
		j := job{err: errors.Join(p.errs[i], checks[si])}
		if j.err == nil {
			// The simulated metrics count each distinct spec once, at
			// its first job: that is the simulation the farm ran.
			if !simulated[si] {
				r := results[si]
				j.exact = tally{
					"sim_s":           r.Seconds,
					"fabric_bytes":    float64(r.Bytes),
					"fabric_messages": float64(r.Messages),
				}
				simulated[si] = true
			}
			// Queue and simulation time are sampled over the jobs that
			// occupied a worker; hits and dedups would pin both medians
			// at zero.
			v := p.views[i]
			if v.Cache == "fresh" {
				e.sample("farm.queue_s", v.QueueSeconds)
				e.sample("farm.sim_s", v.SimSeconds)
			}
			e.sample("farm.overhead_ms", (p.latencies[i]-v.SimSeconds)*1e3)
		}
		out.jobs = append(out.jobs, j)
	}
	if st, err := getJSON[farm.Stats](http.DefaultClient, p.base+"/v1/stats"); err == nil {
		out.gauges["farm.hit_ratio"] = float64(st.Cache.Hits) / float64(len(p.jobs))
		out.gauges["farm.dedups"] = float64(st.Cache.Dedups)
	} else {
		out.jobs = append(out.jobs, job{err: fmt.Errorf("GET /v1/stats: %w", err)})
	}
	return out
}

// check fetches one distinct result and verifies it.
func (p *farmPass) check(e *env, s farmSpec) (scenario.Result, error) {
	var r scenario.Result
	resp, err := http.Get(p.base + "/v1/results/" + s.hash)
	if err != nil {
		return r, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("GET /v1/results/%s: %s", s.hash, resp.Status)
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, err
	}
	if prev, ok := p.seen[s.hash]; !ok {
		p.seen[s.hash] = data
	} else if !bytes.Equal(prev, data) {
		return r, fmt.Errorf("%s: result differs from an earlier pass", s.hash)
	}
	runner, err := s.spec.Runner()
	if err != nil {
		return r, err
	}
	if ref := p.refs.get(e, runner, s.spec.Scale, s.hash); r.Checksum != ref.sum {
		return r, fmt.Errorf("%s: checksum %v, reference %v", s.hash, r.Checksum, ref.sum)
	}
	return r, nil
}

// close shuts the HTTP server and the farm down and waits for both.
func (p *farmPass) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p.http.Shutdown(ctx) // a timeout leaves connections to Close below
	p.http.Close()
	p.served.Wait()
	p.server.Close()
	http.DefaultClient.CloseIdleConnections()
}
