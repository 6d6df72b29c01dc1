package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/cds-suite/cds/catalog"
)

// TestListIsTheCatalogue: -list prints exactly the catalogue's linearizable
// targets, so a variant registered there cannot be missing here.
func TestListIsTheCatalogue(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(out.String())
	want := catalog.Targets()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("-list printed %d names, catalogue has %d targets", len(got), len(want))
	}
	for i, tg := range want {
		if got[i] != tg.Name {
			t.Errorf("-list[%d] = %q, want %q", i, got[i], tg.Name)
		}
	}
}

func TestAllTargetsPass(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rounds", "5"}, &out); err != nil {
		t.Fatalf("cdslin -rounds 5: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), " ok ("); n != len(catalog.Targets()) {
		t.Errorf("%d targets reported ok, want %d", n, len(catalog.Targets()))
	}
}

func TestUnknownStructure(t *testing.T) {
	if err := run([]string{"-structure", "no/such"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown -structure accepted")
	}
}
