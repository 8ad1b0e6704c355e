package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/runner"
)

// FuzzClusterRequest drives the cluster-create and member-attach JSON
// request path: any byte string must either decode-fail (the handler's
// 400), resolve cleanly, or yield a typed error that respond maps to a
// 4xx — malformed budgets, duplicate member ids, over-MaxSessions
// groups and arbitrary mutations must never panic or surface as a 5xx.
// resolve is the exact validation the handlers run before any simulator
// is built, so fuzzing it covers the unauthenticated decision surface
// without paying for simulator construction per input.
func FuzzClusterRequest(f *testing.F) {
	f.Add([]byte(`{"budget_w":120,"arbiter":"slack","members":[` +
		`{"id":"ilp","weight":2,"session":{"mix":"ILP1","budget_frac":0.6,"cores":8,"epochs":6}},` +
		`{"id":"mem","floor_frac":0.2,"session":{"mix":"MEM3","budget_frac":0.6,"cores":8,"epochs":6}}]}`))
	f.Add([]byte(`{"budget_frac":0.65,"members":[{"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":-40,"members":[{"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":1e308,"budget_frac":0.5,"members":[]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"id":"a","session":{"mix":"MIX3","budget_frac":0.6}},` +
		`{"id":"a","session":{"mix":"MID1","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"arbiter":"chaos","members":[{"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[` +
		`{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}},` +
		`{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}},` +
		`{"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"weight":-1,"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"floor_frac":1.5,"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"session":{"mix":"MIX3","budget_frac":0.6,"record":true}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"session":{"mix":"MIX3","budget_frac":0.6,` +
		`"machine":{"classes":[{"name":"big","count":2},{"name":"little","count":2,"ladder":"efficiency"}]},"cores":4}}]}`))
	f.Add([]byte(`{"id":"late","session":{"mix":"MEM2","budget_frac":0.6}}`))
	f.Add([]byte(`{"budget_w":120,"arbiter":"slo","members":[` +
		`{"id":"gold","target_bips":4,"session":{"mix":"ILP1","budget_frac":0.6,"cores":8,"epochs":6}},` +
		`{"id":"be","session":{"mix":"MEM3","budget_frac":0.6,"cores":8,"epochs":6}}]}`))
	f.Add([]byte(`{"budget_w":120,"arbiter":"predictive","members":[` +
		`{"id":"surge","session":{"mix":"ILP1","budget_frac":0.6,"cores":8,"epochs":6,` +
		`"phases":[{"epoch":2,"scale":2}]}},` +
		`{"id":"donor","session":{"mix":"MEM3","budget_frac":0.6,"cores":8,"epochs":6}}]}`))
	f.Add([]byte(`{"budget_frac":0.55,"arbiter":"predictive","members":[` +
		`{"id":"a","weight":2,"floor_frac":0.2,"session":{"mix":"MIX3","budget_frac":0.6}},` +
		`{"id":"b","session":{"mix":"MID1","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"target_bips":-2,"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"target_bips":NaN,"session":{"mix":"MIX3","budget_frac":0.6}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"session":{"mix":"MIX3","budget_frac":0.6,` +
		`"phases":[{"epoch":2,"scale":2},{"epoch":4,"scale":0.25}]}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"session":{"mix":"MIX3","budget_frac":0.6,` +
		`"phases":[{"epoch":3,"scale":-1}]}}]}`))
	f.Add([]byte(`{"budget_w":50,"members":[{"session":{"mix":"MIX3","budget_frac":0.6,` +
		`"phases":[{"epoch":5,"scale":1},{"epoch":5,"scale":2}]}}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(err error) {
			t.Helper()
			if err == nil {
				return
			}
			if !errors.Is(err, runner.ErrInvalidConfig) && !errors.Is(err, ErrTooManySessions) {
				t.Fatalf("untyped request error: %v", err)
			}
			rw := httptest.NewRecorder()
			respond.Error(rw, err)
			if rw.Code < 400 || rw.Code >= 500 {
				t.Fatalf("request error mapped to %d, want a 4xx: %v", rw.Code, err)
			}
		}

		// Create path: strict decode, then the pure resolution the
		// handler runs before building anything.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req ClusterRequest
		if err := dec.Decode(&req); err == nil {
			_, err := req.resolve(4)
			check(err)
		}

		// Attach path: the same bytes as a member request.
		dec = json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var mr ClusterMemberRequest
		if err := dec.Decode(&mr); err == nil {
			_, err := resolveMember(mr, 0, map[string]bool{})
			check(err)
		}
	})
}
