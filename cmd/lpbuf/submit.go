package main

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/service"
)

// submitOptions carries the client-side knobs of -submit mode.
type submitOptions struct {
	progress      bool   // stream SSE progress to stderr
	specOut       string // write the normalized lpbuf.job/v1 request here
	statusOut     string // write the final lpbuf.jobstatus/v1 response here
	jsonOut       string // write the artifact bytes verbatim here
	traceOut      string // write the server-side span tree (Perfetto JSON) here
	simProfileOut string // write the server-side sampled PMU profile here
	simFlameOut   string // render that profile as collapsed stacks here
}

// pollInterval paces status polling when -progress (SSE) is off.
const pollInterval = 250 * time.Millisecond

// runSubmit posts the spec to a running lpbufd, follows the job to a
// terminal state, fetches the artifact and renders the figures locally
// — the remote counterpart of running the same flags in-process. The
// artifact bytes are returned exactly as served (content-addressed
// stores are byte-exact; re-encoding would defeat cmp-based checks).
func runSubmit(baseURL string, spec service.JobSpec, opts submitOptions) error {
	base := strings.TrimRight(baseURL, "/")
	client := &http.Client{}

	if opts.specOut != "" {
		norm, err := spec.Normalized()
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(norm, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.specOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (%s)\n", opts.specOut, service.JobSchema)
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	// Propagate a client-minted trace ID so the server's span tree for
	// this job is correlatable end to end; the daemon echoes it back in
	// the same header and stamps it on the root span.
	traceID := clientTraceID()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.TraceHeader, traceID)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return fmt.Errorf("submit: server said %s (retry after %ss): %s", resp.Status, ra, msg)
		}
		return fmt.Errorf("submit: server said %s: %s", resp.Status, msg)
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("submit: bad status response: %w", err)
	}
	fmt.Fprintf(os.Stderr, "lpbuf: submitted %s (key %s…, trace %s)\n", st.ID, st.Key[:12], traceID)

	if opts.progress {
		if err := streamEvents(client, base, st.ID); err != nil {
			// Progress is advisory; fall through to polling on error.
			fmt.Fprintf(os.Stderr, "lpbuf: progress stream: %v\n", err)
		}
	}
	st, err = waitTerminal(client, base, st.ID)
	if err != nil {
		return err
	}
	if opts.statusOut != "" {
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.statusOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (%s)\n", opts.statusOut, service.StatusSchema)
	}
	switch st.State {
	case service.StateDone:
	case service.StateFailed:
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	default:
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}

	artResp, err := client.Get(base + "/v1/jobs/" + st.ID + "/artifact")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	artBytes, err := io.ReadAll(artResp.Body)
	artResp.Body.Close()
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if artResp.StatusCode != http.StatusOK {
		return fmt.Errorf("artifact: server said %s: %s", artResp.Status, strings.TrimSpace(string(artBytes)))
	}
	if via := artResp.Header.Get("X-Lpbuf-Cache"); via != "" {
		fmt.Fprintf(os.Stderr, "lpbuf: artifact %s (%d bytes, %s)\n", st.ID, len(artBytes), via)
	}

	art, err := experiments.DecodeArtifact(artBytes)
	if err != nil {
		return err
	}
	art.Render(os.Stdout)

	if opts.jsonOut != "" {
		if err := os.WriteFile(opts.jsonOut, artBytes, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (%s)\n", opts.jsonOut, experiments.ArtifactSchema)
	}
	if opts.traceOut != "" {
		if err := fetchTrace(client, base, st.ID, opts.traceOut); err != nil {
			return err
		}
	}
	if opts.simProfileOut != "" || opts.simFlameOut != "" {
		if err := fetchSimProfile(client, base, st.ID, opts.simProfileOut, opts.simFlameOut); err != nil {
			return err
		}
	}
	return nil
}

// clientTraceID mints a random trace ID (16 hex chars) for correlating
// the submission with the daemon's per-job span tree.
func clientTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degenerate fallback: let the server mint one instead.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// fetchTrace downloads the job's server-side span tree (Perfetto JSON)
// and writes it verbatim to path.
func fetchTrace(client *http.Client, base, id, path string) error {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: server said %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (server trace %s)\n", path, resp.Header.Get(service.TraceHeader))
	return nil
}

// fetchSimProfile downloads the job's sampled PMU profile
// (lpbuf.simprofile/v1 JSON), writes it verbatim to profilePath (when
// set) and renders it as collapsed-stack flamegraph text to flamePath
// (when set). Jobs served entirely from the artifact store carry no
// profile (the daemon answers 404); that surfaces here as an error
// rather than an empty file.
func fetchSimProfile(client *http.Client, base, id, profilePath, flamePath string) error {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/simprofile")
	if err != nil {
		return fmt.Errorf("simprofile: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("simprofile: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("simprofile: server said %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if profilePath != "" {
		if err := os.WriteFile(profilePath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (%s)\n", profilePath, pmu.Schema)
	}
	if flamePath != "" {
		doc, err := pmu.Decode(data)
		if err != nil {
			return fmt.Errorf("simprofile: %w", err)
		}
		if err := os.WriteFile(flamePath, []byte(doc.Collapsed()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (collapsed stacks)\n", flamePath)
	}
	return nil
}

// streamEvents follows the job's SSE progress stream, echoing events to
// stderr until the server closes it (terminal state).
func streamEvents(client *http.Client, base, id string) error {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server said %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e service.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			continue
		}
		switch e.Type {
		case "state":
			fmt.Fprintf(os.Stderr, "lpbuf: %s -> %s\n", e.JobID, e.State)
		case "progress":
			fmt.Fprintf(os.Stderr, "lpbuf: %s %s %s (%.1fms)\n", e.JobID, e.Phase, e.Key, e.ElapsedMS)
		}
	}
	return sc.Err()
}

// waitTerminal polls the job's status until it reaches a terminal
// state.
func waitTerminal(client *http.Client, base, id string) (service.JobStatus, error) {
	for {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return service.JobStatus{}, fmt.Errorf("status: %w", err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return service.JobStatus{}, fmt.Errorf("status: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return service.JobStatus{}, fmt.Errorf("status: server said %s: %s",
				resp.Status, strings.TrimSpace(string(data)))
		}
		var st service.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return service.JobStatus{}, fmt.Errorf("status: %w", err)
		}
		if st.State.Terminal() {
			return st, nil
		}
		time.Sleep(pollInterval)
	}
}
