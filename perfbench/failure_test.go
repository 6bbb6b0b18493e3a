package main

import (
	"strings"
	"testing"
)

// TestFailureAccounting injects one fault per case and checks that
// exactly the operations it breaks count as failed, that error_rate is
// failed over attempted, and that every declared metric still prints.
func TestFailureAccounting(t *testing.T) {
	d := loadDecl(t)
	tests := []struct {
		name     string
		workload string
		faults   faults
		broken   []string // the operations the fault fails, every time
		reason   string   // appears in each of their failures
	}{
		{"truncated key file into decode", "roundtrip-mem", faults{truncateKey: true}, []string{"decode"}, "decode: exit status 1"},
		{"key store errors answer 5xx", "daemon-mix", faults{failKeyStore: true}, []string{"encode", "decode"}, "500 Internal Server Error"},
		{"tampered tree", "daemon-mix", faults{tamperTree: true}, []string{"decode"}, "same_outcome false"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig(t, tt.workload, true)
			cfg.faults = tt.faults
			out := runSmall(t, cfg)
			broken := map[string]bool{}
			for _, op := range tt.broken {
				broken[op] = true
			}
			for op, c := range out.ops {
				want := 0
				if broken[op] {
					want = c[0]
				}
				if c[0] == 0 || c[1] != want {
					t.Errorf("%s: %d of %d failed, want %d", op, c[1], c[0], want)
				}
			}
			for _, why := range out.failures {
				if !strings.Contains(why, tt.reason) {
					t.Errorf("failure %q, want one mentioning %q", why, tt.reason)
				}
			}
			rate := float64(out.failed) / float64(out.attempted)
			for _, m := range []metrics{out.plain, out.traced} {
				if got := m["error_rate"].Value; got != rate || got == 0 {
					t.Errorf("error_rate = %v, want %v > 0", got, rate)
				}
			}
			for _, trace := range []bool{false, true} {
				res, err := out.result(d, trace)
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				if res.Correct || res.Failed != out.failed || res.Attempted != out.attempted {
					t.Errorf("trace %v: result %+v claims correct or miscounts", trace, res)
				}
				want := len(d.EndToEnd)
				if trace {
					want = len(d.PerLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("trace %v: %d metrics printed, want %d", trace, len(res.Metrics), want)
				}
			}
		})
	}
}
