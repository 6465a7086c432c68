package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// statleakctl and perfbench decode statuses and outcomes from the
// daemon's HTTP responses, and the handler decodes requests with
// DisallowUnknownFields, so every payload must survive a JSON round
// trip unchanged — including the *time.Time omitempty semantics and
// the scenario/corner extensions.

func TestStatusRoundTripOmitsUnsetTimes(t *testing.T) {
	pending := Status{
		ID:      "job-000001",
		State:   StatePending,
		Created: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
	}
	b, err := json.Marshal(pending)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// A pending job has no started/finished instants; the wire form
	// must omit the keys rather than emit zero timestamps, or a client
	// would read a year-1 start time.
	for _, key := range []string{"started", "finished"} {
		if bytes.Contains(b, []byte(`"`+key+`"`)) {
			t.Fatalf("pending status serialized %q: %s", key, b)
		}
	}
	var back Status
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Started != nil || back.Finished != nil {
		t.Fatalf("round trip invented timestamps: %+v", back)
	}
	if !reflect.DeepEqual(pending, back) {
		t.Fatalf("round trip changed the status:\n  in  %+v\n  out %+v", pending, back)
	}
}

func TestStatusRoundTripFull(t *testing.T) {
	started := time.Date(2026, 8, 7, 12, 0, 1, 0, time.UTC)
	finished := started.Add(3 * time.Second)
	st := Status{
		ID:             "job-000004",
		State:          StateDone,
		Created:        started.Add(-time.Second),
		Started:        &started,
		Finished:       &finished,
		IdempotencyKey: "nightly-s432",
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Status
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("round trip changed the status:\n  in  %+v\n  out %+v", st, back)
	}
}

func TestRequestRoundTripWithScenario(t *testing.T) {
	req := Request{
		Circuit:   "s432",
		Optimizer: "statistical",
		Preset:    "100nm",
		Scenario: &scenario.Spec{
			Temps:       []float64{25, 110},
			Corners:     []string{"vl", "vn"},
			BiasDomains: 2,
			Bias:        []float64{0.2},
			Aggregate:   "worst",
		},
		MCSamples:      500,
		Seed:           7,
		IdempotencyKey: "scenario-run",
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Request
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields() // what the handler enforces
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("decode under DisallowUnknownFields: %v", err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("round trip changed the request:\n  in  %+v\n  out %+v", req, back)
	}
}

func TestOutcomeRoundTripWithCorners(t *testing.T) {
	out := Outcome{
		Optimizer:   "statistical",
		Circuit:     "s432",
		Gates:       160,
		TmaxPs:      900,
		Feasible:    true,
		Moves:       42,
		YieldAtTmax: 0.993,
		LeakMeanNW:  1234.5,
		Corners: []engine.CornerMetrics{
			{Name: "vl/25C", YieldAtTmax: 0.999, LeakPctNW: 900.25, DelayMeanPs: 850},
			{Name: "vh/110C", YieldAtTmax: 0.991, LeakPctNW: 2100.5, DelayMeanPs: 910},
		},
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Outcome
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(out, back) {
		t.Fatalf("round trip changed the outcome:\n  in  %+v\n  out %+v", out, back)
	}
}
