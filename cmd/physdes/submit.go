package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// cmdSubmit is the client glue for the advisor daemon (cmd/physdesd): it
// uploads a workload, submits a selection job, and either polls the job
// to completion or follows its SSE round stream. Seeds mean exactly what
// they mean to `physdes select`, so a submitted job reproduces the CLI
// run bit for bit.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8639", "physdesd base URL")
	tenantName := fs.String("tenant", "", "tenant name (default tenant when empty)")
	db := fs.String("db", "tpcd", "database: tpcd or crm")
	n := fs.Int("n", 1000, "workload size")
	k := fs.Int("k", 10, "number of candidate configurations")
	seed := fs.Uint64("seed", 1, "random seed")
	alpha := fs.Float64("alpha", 0, "target Pr(CS) override (0 = server default)")
	scheme := fs.String("scheme", "", "sampling scheme override: delta or independent")
	strat := fs.String("strat", "", "stratification override: none, progressive or fine")
	conservative := fs.Bool("conservative", false, "conservative variance mode")
	follow := fs.Bool("follow", false, "stream round events over SSE instead of polling")
	wait := fs.Bool("wait", true, "wait for the job to finish")
	fs.Parse(args)

	c := &client{base: strings.TrimRight(*server, "/"), tenant: *tenantName}

	var wresp struct {
		ID         string `json:"id"`
		Statements int    `json:"statements"`
		Templates  int    `json:"templates"`
	}
	err := c.post("/v1/workloads", map[string]any{"db": *db, "n": *n, "seed": *seed}, &wresp)
	if err != nil {
		return fmt.Errorf("upload workload: %w", err)
	}
	fmt.Printf("workload %s: %d statements, %d templates\n", wresp.ID, wresp.Statements, wresp.Templates)

	jobReq := map[string]any{"workload": wresp.ID, "k": *k, "seed": *seed}
	if *alpha > 0 {
		jobReq["alpha"] = *alpha
	}
	if *scheme != "" {
		jobReq["scheme"] = *scheme
	}
	if *strat != "" {
		jobReq["strat"] = *strat
	}
	if *conservative {
		jobReq["conservative"] = true
	}
	var job jobView
	if err := c.post("/v1/jobs", jobReq, &job); err != nil {
		return fmt.Errorf("submit job: %w", err)
	}
	fmt.Printf("job %s: %s\n", job.ID, job.Status)
	if !*wait && !*follow {
		return nil
	}
	if *follow {
		if err := c.followEvents(job.ID); err != nil {
			return err
		}
	}
	final, err := c.pollJob(job.ID)
	if err != nil {
		return err
	}
	printJob(final)
	if final.Status != "done" {
		return fmt.Errorf("job %s ended %s: %s", final.ID, final.Status, final.Error)
	}
	return nil
}

type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		Best           string  `json:"best"`
		PrCS           float64 `json:"prcs"`
		SampledQueries int     `json:"sampled_queries"`
		OptimizerCalls int64   `json:"optimizer_calls"`
		Eliminated     int     `json:"eliminated"`
		Strata         int     `json:"strata"`
	} `json:"result"`
}

func printJob(j jobView) {
	fmt.Printf("job %s: %s\n", j.ID, j.Status)
	if j.Result != nil {
		fmt.Printf("  best: %s (Pr(CS) %.4f)\n", j.Result.Best, j.Result.PrCS)
		fmt.Printf("  sampled %d queries with %d optimizer calls; %d eliminated, %d strata\n",
			j.Result.SampledQueries, j.Result.OptimizerCalls, j.Result.Eliminated, j.Result.Strata)
	}
}

// client is a minimal stdlib HTTP client for the daemon API that retries
// admission-control 429s after the server's Retry-After hint.
type client struct {
	base   string
	tenant string
}

func (c *client) do(req *http.Request) (*http.Response, error) {
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	return http.DefaultClient.Do(req)
}

func (c *client) post(path string, body any, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 5 {
			delay := 1
			if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
				delay = v
			}
			resp.Body.Close()
			fmt.Printf("  server busy; retrying in %ds\n", delay)
			time.Sleep(time.Duration(delay) * time.Second)
			continue
		}
		return decodeResponse(resp, out)
	}
}

func (c *client) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the queue/run
// states.
func (c *client) pollJob(id string) (jobView, error) {
	for {
		var j jobView
		if err := c.get("/v1/jobs/"+id, &j); err != nil {
			return j, err
		}
		switch j.Status {
		case "queued", "running", "cancelling":
			time.Sleep(200 * time.Millisecond)
		default:
			return j, nil
		}
	}
}

// followEvents tails the job's SSE stream, printing each round event
// until the final done event.
func (c *client) followEvents(id string) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "round" {
				var rd struct {
					Round   int     `json:"round"`
					PrCS    float64 `json:"prcs"`
					Samples int     `json:"samples"`
				}
				if json.Unmarshal([]byte(data), &rd) == nil {
					fmt.Printf("  round %d: n=%d Pr(CS)=%.4f\n", rd.Round, rd.Samples, rd.PrCS)
				}
			} else if event == "done" {
				fmt.Printf("  %s\n", data)
				return sc.Err()
			}
		}
	}
	return sc.Err()
}
