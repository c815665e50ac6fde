package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestFlagValidation parses each command line as main does and requires
// the rejected ones to fail before any output: in options.validate, or
// where generate builds the orbits.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args    string
		wantErr string // "" means accepted
	}{
		{"", ""},
		{"-grid", ""},
		{"-delta -grid", ""},
		{"-random 40 -t 600 -mask 0", ""},
		{"-mask 89.9", ""},
		{"-t NaN", "-t NaN must be finite"},
		{"-t +Inf", "-t +Inf must be finite"},
		{"-mask NaN", "-mask NaN outside [0, 90)"},
		{"-mask 95", "-mask 95 outside [0, 90)"},
		{"-mask 90", "-mask 90 outside [0, 90)"},
		{"-mask -1", "-mask -1 outside [0, 90)"},
		{"-random -3", "-random -3 must not be negative"},
		{"-alt NaN", "altitude NaN km is not an orbit"},
		{"-alt +Inf", "altitude +Inf km is not an orbit"},
		{"-incl 500", "inclination 500.00° outside [0,180]"},
		{"-incl -20", "inclination -20.00° outside [0,180]"},
		{"-shells 66:6:2:NaN:86.4", "altitude NaN km is not an orbit"},
		{"-random 40 -alt NaN", "semi-major axis NaN km must be positive and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			fs := flag.NewFlagSet("openspace-constellation", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o := registerFlags(fs)
			if err := fs.Parse(strings.Fields(tc.args)); err != nil {
				t.Fatal(err)
			}
			err := o.validate()
			if err == nil {
				_, _, err = generate(*o)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
