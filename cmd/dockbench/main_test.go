package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantOut string // substring of stdout on success
		wantErr string // substring of the error; empty means success
	}{
		{"table 1", []string{"-exp", "t1", "-quick"}, "TABLE 1", ""},
		{"calibration fit", []string{"-exp", "fit", "-quick"}, "vinaFEBOffset", ""},
		{"retired experiment", []string{"-exp", "kernels"}, "", `unknown experiment "kernels" (want t1-t3, f5-f11, all)`},
		{"retired flag", []string{"-benchout", "x"}, "", "flag provided but not defined: -benchout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(out.String(), tc.wantOut) {
					t.Errorf("stdout %q lacks %q", out.String(), tc.wantOut)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if out.Len() != 0 {
				t.Errorf("failed run wrote %q to stdout", out.String())
			}
		})
	}
}
