// Command statleakctl is the operator CLI for one statleakd daemon: it
// submits, watches, lists and cancels jobs over the daemon's /v1/jobs
// API and prints its /healthz payload.
//
// Usage:
//
//	statleakctl [-addr http://localhost:8080] <command> [flags]
//
// Commands:
//
//	submit   submit a job (netlist file or named circuit) and print its status
//	status   print one job's status
//	watch    poll a job until it reaches a terminal state
//	result   fetch a done job's outcome JSON
//	cancel   cancel a job
//	jobs     list jobs (?state/?limit/?offset filters)
//	health   print the daemon's /healthz payload
//
// Examples:
//
//	statleakctl -addr http://localhost:8080 submit -circuit s432 -key nightly-s432 -watch
//	statleakctl -addr http://localhost:8080 jobs -state running -limit 10
//	statleakctl -addr http://localhost:8080 result job-000001
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/server"
)

const maxBody = 16 << 20

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "statleakd base URL")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	cl := &client{base: strings.TrimRight(*addr, "/"), hc: &http.Client{Timeout: *timeout}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, cl, args)
	case "status":
		err = cmdStatus(ctx, cl, args)
	case "watch":
		err = cmdWatch(ctx, cl, args)
	case "result":
		err = cmdGet(ctx, cl, args, "result", func(id string) string { return "/v1/jobs/" + id + "/result" })
	case "cancel":
		err = cmdCancel(ctx, cl, args)
	case "jobs":
		err = cmdJobs(ctx, cl, args)
	case "health":
		err = cl.getJSON(ctx, "/healthz")
	default:
		usage()
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "statleakctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: statleakctl [-addr URL] <command> [flags]

commands:
  submit   -netlist FILE | -circuit NAME  [-format bench|verilog] [-name N]
           [-optimizer statistical|deterministic|anneal|dual] [-preset 100nm]
           [-key IDEMPOTENCY-KEY] [-mc-samples N] [-seed N] [-timeout-sec S]
           [-watch [-interval 1s]]
  status   JOB-ID
  watch    JOB-ID [-interval 1s]
  result   JOB-ID
  cancel   JOB-ID
  jobs     [-state pending|running|done|failed|cancelled] [-limit N] [-offset N]
  health
`)
	flag.PrintDefaults()
}

// cmdSubmit builds a server.Request from flags, posts it, and
// optionally watches the job to completion.
func cmdSubmit(ctx context.Context, cl *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		netlistPath = fs.String("netlist", "", "netlist file to submit (text is uploaded; the daemon never reads paths)")
		format      = fs.String("format", "", `netlist format: "bench" (default) or "verilog"`)
		circuit     = fs.String("circuit", "", "named synthetic circuit (s432…s7552, q344…q5378) instead of -netlist")
		name        = fs.String("name", "", "design label")
		preset      = fs.String("preset", "", "technology preset: 130nm, 100nm (default), 70nm")
		optimizer   = fs.String("optimizer", "", "statistical (default), deterministic, anneal, dual")
		key         = fs.String("key", "", "idempotency key: resubmissions with the same key return the existing job")
		mcSamples   = fs.Int("mc-samples", 0, "final Monte Carlo scoreboard sample count (0 disables)")
		seed        = fs.Int64("seed", 0, "Monte Carlo seed")
		timeoutSec  = fs.Float64("timeout-sec", 0, "per-job wall-clock cap [s]")
		watch       = fs.Bool("watch", false, "poll until the job reaches a terminal state")
		interval    = fs.Duration("interval", time.Second, "poll interval with -watch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := server.Request{
		Circuit:        *circuit,
		Format:         *format,
		Name:           *name,
		Preset:         *preset,
		Optimizer:      *optimizer,
		IdempotencyKey: *key,
		MCSamples:      *mcSamples,
		Seed:           *seed,
		TimeoutSec:     *timeoutSec,
	}
	if *netlistPath != "" {
		b, err := os.ReadFile(*netlistPath)
		if err != nil {
			return err
		}
		req.Netlist = string(b)
	}
	if req.Netlist == "" && req.Circuit == "" {
		return errors.New("submit: one of -netlist or -circuit is required")
	}
	var st server.Status
	if err := cl.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return err
	}
	if !*watch {
		return printJSON(st)
	}
	fmt.Fprintf(os.Stderr, "submitted %s; watching\n", st.ID)
	return watchJob(ctx, cl, st.ID, *interval)
}

func cmdStatus(ctx context.Context, cl *client, args []string) error {
	if len(args) != 1 {
		return errors.New("status: want exactly one JOB-ID")
	}
	var st server.Status
	if err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+args[0], nil, &st); err != nil {
		return err
	}
	return printJSON(st)
}

func cmdWatch(ctx context.Context, cl *client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("watch: want exactly one JOB-ID")
	}
	return watchJob(ctx, cl, fs.Arg(0), *interval)
}

// watchJob polls the job's status until it goes terminal, echoing
// each state transition, then prints the final status (and, for done
// jobs, leaves the outcome to `statleakctl result`).
func watchJob(ctx context.Context, cl *client, id string, interval time.Duration) error {
	last := server.State("")
	for {
		var st server.Status
		if err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
			return err
		}
		if st.State != last {
			fmt.Fprintf(os.Stderr, "%s %s\n", st.ID, st.State)
			last = st.State
		}
		if st.State.Terminal() {
			return printJSON(st)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
}

func cmdGet(ctx context.Context, cl *client, args []string, what string, path func(string) string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s: want exactly one JOB-ID", what)
	}
	return cl.getJSON(ctx, path(args[0]))
}

func cmdCancel(ctx context.Context, cl *client, args []string) error {
	if len(args) != 1 {
		return errors.New("cancel: want exactly one JOB-ID")
	}
	var st server.Status
	if err := cl.do(ctx, http.MethodDelete, "/v1/jobs/"+args[0], nil, &st); err != nil {
		return err
	}
	return printJSON(st)
}

func cmdJobs(ctx context.Context, cl *client, args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	var (
		state  = fs.String("state", "", "filter by state")
		limit  = fs.Int("limit", 0, "page size (0 = everything)")
		offset = fs.Int("offset", 0, "page start")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := make([]string, 0, 3)
	if *state != "" {
		q = append(q, "state="+*state)
	}
	if *limit > 0 {
		q = append(q, fmt.Sprintf("limit=%d", *limit))
	}
	if *offset > 0 {
		q = append(q, fmt.Sprintf("offset=%d", *offset))
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	return cl.getJSON(ctx, path)
}

// client is a minimal JSON client over the daemon's API.
type client struct {
	base string
	hc   *http.Client
}

// do runs one JSON request; non-2xx responses become errors carrying
// the server's error message.
func (cl *client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = strings.NewReader(string(b))
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
			State string `json:"state"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			if e.State != "" {
				return fmt.Errorf("%s: %s (state %s)", resp.Status, e.Error, e.State)
			}
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// getJSON fetches path and pretty-prints the response body as-is —
// used for payloads the CLI has no struct for (health, outcomes, job
// listings).
func (cl *client) getJSON(ctx context.Context, path string) error {
	var v any
	if err := cl.do(ctx, http.MethodGet, path, nil, &v); err != nil {
		return err
	}
	return printJSON(v)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
