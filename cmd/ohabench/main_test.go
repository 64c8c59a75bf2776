package main

import "testing"

// TestKnownExp: every documented -exp value is accepted and any other
// name is rejected, so a misspelt experiment cannot run nothing and
// exit 0.
func TestKnownExp(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"fig5", true}, {"tab1", true}, {"fig6", true}, {"tab2", true},
		{"fig7", true}, {"fig8", true}, {"fig9", true}, {"fig10", true},
		{"fig11", true}, {"all", true},
		{"fig12", false}, {"tab3", false}, {"", false}, {"Fig5", false},
		{"fig5,fig6", false}, {" all", false},
	} {
		if got := knownExp(tc.name); got != tc.want {
			t.Errorf("knownExp(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
