package main

import (
	"strings"
	"testing"
)

// TestCheckFlags covers the flag-misuse error paths: -smoke and -json
// modify only the experiments that define a reduced configuration or a
// report, and must fail loudly instead of being silently ignored.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		exp      string
		smoke    bool
		jsonPath string
		wantErr  string // empty: combination must be accepted
	}{
		{exp: "all"},
		{exp: "fig11"},
		{exp: "kernels", jsonPath: "k.json"},
		{exp: "cache", smoke: true, jsonPath: "c.json"},
		{exp: "p99", smoke: true},
		{exp: "scale", smoke: true},
		{exp: "tenants", smoke: true, jsonPath: "t.json"},
		{exp: "pipeline", smoke: true},
		{exp: "all", smoke: true, wantErr: "-smoke applies only to -exp cache, p99, pipeline, restripe, scale, tenants"},
		{exp: "kernels", smoke: true, wantErr: "-smoke applies only to"},
		{exp: "fig12", jsonPath: "f.json", wantErr: "-json applies only to -exp cache, kernels, p99, pipeline, restripe, scale, tenants"},
		{exp: "all", jsonPath: "a.json", wantErr: "-json applies only to"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.exp, tc.smoke, tc.jsonPath)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", tc, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%+v: combination accepted, want %q", tc, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%+v: error %q does not contain %q", tc, err, tc.wantErr)
		}
	}
	for name := range smokeable {
		if _, ok := reports[name]; !ok {
			t.Errorf("smokeable experiment %q has no report", name)
		}
	}
}
