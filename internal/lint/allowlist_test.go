package lint

import (
	"strings"
	"testing"
)

func TestAllowlist(t *testing.T) {
	al, err := ParseAllowlist(strings.NewReader(`
# grandfathered findings
deterministic-map-range internal/foo/bar.go:12

no-wallclock internal/baz/qux.go:3
`))
	if err != nil {
		t.Fatal(err)
	}
	if al.Len() != 2 {
		t.Fatalf("Len = %d, want 2", al.Len())
	}

	match := Diagnostic{Analyzer: "deterministic-map-range", File: "internal/foo/bar.go", Line: 12}
	if !al.Allows(match) {
		t.Error("exact entry not matched")
	}
	for _, miss := range []Diagnostic{
		{Analyzer: "no-global-rand", File: "internal/foo/bar.go", Line: 12},            // wrong analyzer
		{Analyzer: "deterministic-map-range", File: "internal/foo/bar.go", Line: 13},   // wrong line
		{Analyzer: "deterministic-map-range", File: "internal/foo/other.go", Line: 12}, // wrong file
	} {
		if al.Allows(miss) {
			t.Errorf("spuriously allowed %v", miss)
		}
	}

	stale := al.Stale()
	if len(stale) != 1 || stale[0] != "no-wallclock internal/baz/qux.go:3" {
		t.Errorf("Stale = %v, want the unmatched wallclock entry", stale)
	}
}

func TestAllowlistMalformed(t *testing.T) {
	for _, bad := range []string{
		"deterministic-map-range internal/foo/bar.go", // no line number
		"just-one-field",
		"too many fields here x:1",
	} {
		if _, err := ParseAllowlist(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseAllowlist(%q) accepted malformed input", bad)
		}
	}
}

func TestNilAllowlist(t *testing.T) {
	var al *Allowlist
	if al.Allows(Diagnostic{}) {
		t.Error("nil allowlist allowed a finding")
	}
	if al.Stale() != nil || al.Len() != 0 {
		t.Error("nil allowlist not empty")
	}
}
