// Package serve is the simulation-as-a-service layer: an HTTP daemon
// (cmd/ancserve) that accepts campaign requests, runs them on a bounded
// job queue backed by the same streaming engine the CLI uses, and fans
// each campaign's NDJSON stream out to any number of concurrent
// subscribers.
//
// The load-bearing property is byte identity: a campaign served over
// the wire is streamed through experiments.Streamer — the exact seam
// `ancsim -format ndjson` writes through — so a served stream is
// byte-for-byte the CLI's output for the same request. That is what
// makes the content-addressed job cache sound: two requests with the
// same canonical hash observe the same bytes whether they share one
// live run, replay a finished one, or run it themselves.
//
// serve is a sanctioned package under the determinism analyzer
// (see internal/analysis/determinism): it reads wall clocks for job
// latency metrics and write deadlines, which is legitimate here
// because no simulation output depends on this package — it sits
// strictly downstream of the engine, transporting its bytes.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Request is the wire form of one campaign request: the scenario ×
// schemes × modem × seed-range × config cell a client wants streamed.
// Zero-valued fields take the campaign defaults (the same defaults the
// ancsim flags have), so the minimal request is {"scenario": "alice-bob"}.
type Request struct {
	// Scenario names a registered scenario (GET /v1/scenarios lists them).
	Scenario string `json:"scenario"`
	// Schemes optionally restricts the campaign to a subset of the
	// scenario's schemes (anc|routing|cope). Empty keeps the default
	// framing: ANC and routing, plus COPE where supported.
	Schemes []string `json:"schemes,omitempty"`
	// Modem names a registered PHY modem; empty means the scenario's
	// preference, else msk.
	Modem string `json:"modem,omitempty"`
	// Runs is the number of independent runs (0 = 40, the paper's count).
	Runs int `json:"runs,omitempty"`
	// Seed derives all per-run seeds (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// SNRdB is the nominal per-link SNR; absent means 25 dB. An explicit
	// 0 is a legitimate 0 dB campaign, which is why this is a pointer.
	SNRdB *float64 `json:"snr_db,omitempty"`
	// Fading selects the per-link channel model:
	// static|rayleigh|rician|mobility ("" = static).
	Fading string `json:"fading,omitempty"`
	// DopplerRad is the mobility-model phase advance in rad/slot.
	DopplerRad float64 `json:"doppler_rad,omitempty"`
	// Packets per run (0 = the simulator default).
	Packets int `json:"packets,omitempty"`
	// Trace retains per-slot link gains and attaches outage statistics.
	Trace bool `json:"trace,omitempty"`
}

// Campaign is a resolved, validated Request: the normalized request,
// its canonical content hash, and a single-use Streamer ready to run.
// Resolution performs every validation a run could fail up front, so an
// invalid request is rejected at submission, never inside the queue.
type Campaign struct {
	// Req is the request with defaults filled in.
	Req Request
	// Hash is the canonical content address (hex SHA-256; see Request.Hash).
	Hash string
	// Rows is the number of row lines the stream will emit; the trailing
	// summary record is one more line.
	Rows int
	// Schemes is the resolved scheme plan, in row order.
	Schemes []sim.Scheme
	// Modem is the effective PHY the campaign runs under.
	Modem string

	streamer *experiments.Streamer
}

// normalize fills defaults into a copy of the request and validates the
// fields serve can check without the simulator (shape, spellings).
func (r Request) normalize() (Request, error) {
	if r.Scenario == "" {
		return r, fmt.Errorf("serve: request has no scenario")
	}
	if r.Runs < 0 {
		return r, fmt.Errorf("serve: runs must be ≥ 0 (0 = default), got %d", r.Runs)
	}
	if r.Runs == 0 {
		r.Runs = 40
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.SNRdB == nil {
		r.SNRdB = sim.Ptr(25)
	}
	if math.IsNaN(*r.SNRdB) || math.IsInf(*r.SNRdB, 0) {
		return r, fmt.Errorf("serve: snr_db must be finite, got %v", *r.SNRdB)
	}
	if r.Fading == "" {
		r.Fading = channel.FadingStatic.String()
	}
	if _, err := channel.ParseFadingKind(r.Fading); err != nil {
		return r, err
	}
	if r.Packets < 0 {
		return r, fmt.Errorf("serve: packets must be ≥ 0 (0 = default), got %d", r.Packets)
	}
	if r.Modem != "" {
		if _, ok := phy.Get(r.Modem); !ok {
			return r, fmt.Errorf("serve: unknown modem %q (registered: %s)",
				r.Modem, strings.Join(phy.Names(), ", "))
		}
	}
	return r, nil
}

// options maps a normalized request to the CLI's campaign options. The
// worker count is the server's to choose — results are bit-identical at
// any count, so it is deliberately not a request field and not hashed.
func (r Request) options(workers int) (experiments.StreamOptions, error) {
	var schemes []sim.Scheme
	for _, tok := range r.Schemes {
		s, err := sim.ParseScheme(strings.TrimSpace(tok))
		if err != nil {
			return experiments.StreamOptions{}, err
		}
		schemes = append(schemes, s)
	}
	kind, err := channel.ParseFadingKind(r.Fading)
	if err != nil {
		return experiments.StreamOptions{}, err
	}
	var cfg sim.Config
	cfg.SNRdB = sim.Ptr(*r.SNRdB)
	cfg.Modem = r.Modem
	cfg.Topology.Fading = channel.FadingSpec{Kind: kind, DopplerRad: r.DopplerRad}
	cfg.Packets = r.Packets
	return experiments.StreamOptions{
		Options: experiments.Options{Runs: r.Runs, Sim: cfg, Seed: r.Seed, Schemes: schemes, Workers: workers},
		Trace:   r.Trace,
	}, nil
}

// Resolve validates the request end to end and returns the Campaign
// ready to submit: normalized request, canonical hash, and a single-use
// Streamer. workers sets the engine worker count (≤ 0 = GOMAXPROCS); it
// affects scheduling only, never the bytes, and never the hash.
func (r Request) Resolve(workers int) (*Campaign, error) {
	req, err := r.normalize()
	if err != nil {
		return nil, err
	}
	opts, err := req.options(workers)
	if err != nil {
		return nil, err
	}
	s, err := experiments.NewStreamer(opts, req.Scenario, 1, 1)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		Req:      req,
		Rows:     s.Rows(),
		Schemes:  s.Schemes(),
		Modem:    s.Modem(),
		streamer: s,
	}
	c.Hash = req.hash(c.Schemes, c.Modem)
	return c, nil
}

// hash is the canonical content address of a normalized request: the
// hex SHA-256 of a versioned, fixed-order field encoding. Two requests
// hash equal exactly when they describe the same campaign bytes —
// scheme filters and modems are hashed in *resolved* form, so
// {"schemes": null} and the explicit default set collide (they stream
// identical bytes), while any one-field config change diverges.
func (r Request) hash(schemes []sim.Scheme, modem string) string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = string(s)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	canonical := strings.Join([]string{
		"ancserve/v1",
		"scenario=" + r.Scenario,
		"schemes=" + strings.Join(names, ","),
		"modem=" + modem,
		"runs=" + strconv.Itoa(r.Runs),
		"seed=" + strconv.FormatInt(r.Seed, 10),
		"snr_db=" + f(*r.SNRdB),
		"fading=" + r.Fading,
		"doppler_rad=" + f(r.DopplerRad),
		"packets=" + strconv.Itoa(r.Packets),
		"trace=" + strconv.FormatBool(r.Trace),
	}, "\n")
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}
