package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
)

// FuzzCampaignSpec feeds arbitrary bytes through the spec decoder and
// Validate — the path every create body and every spec file in the state
// directory takes. Bad input must come back as an error, never a panic, and
// a spec that validates must survive a re-encode round trip still valid.
//
//	go test -run XXX -fuzz FuzzCampaignSpec -fuzztime 30s ./internal/serve
func FuzzCampaignSpec(f *testing.F) {
	withFaults := testSpec("faulty")
	withFaults.Env.Faults = &faults.Params{TransientRate: 0.1, StragglerRate: 0.05, StragglerFactor: 3, PermanentIDs: []int{4, 9}}
	badFaults := testSpec("bad-faults")
	badFaults.Env.Faults = &faults.Params{TransientRate: 2}
	badKind := testSpec("bad-kind")
	badKind.Env.Kind = "lookup"
	for _, spec := range []CampaignSpec{
		testSpec("alpha"),
		testSpec("run-1.v2_x"),
		withFaults,
		badFaults,
		badKind,
		testSpec(""),
		testSpec("../escape"),
	} {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, raw := range []string{
		`{}`,
		`null`,
		`[]`,
		`{"id":"a","env":{"kind":"servesim","name":"chat","seed":-1},"options":{"budget":1e308,"extra_constraints":[{"name":"slo","max":1}]}}`,
		`{"id":"a","env":{"kind":"scout","faults":{"crash_at_run":-1}}}`,
		`{"id":"a","env":{"kind":"tensorflow","faults":null},"tuner":{"lookahead":1e3}}`,
		`{"id":"a","options":{"retry":{"timeout_ms":9223372036854775807}}}`,
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if !ValidID(spec.ID) {
			t.Fatalf("Validate accepted invalid ID %q", spec.ID)
		}
		_ = spec.Tuner.TunerConfig()
		_ = spec.Options.Options()
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding a valid spec: %v", err)
		}
		var back CampaignSpec
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("decoding a re-encoded valid spec: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-encoded valid spec no longer validates: %v", err)
		}
	})
}
