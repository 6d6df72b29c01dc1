package reclaim

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestSeamInlines holds the structures to the contract doc.go states: the
// nil checks in front of the reclamation seam are inlined into their call
// sites, so a structure on plain GC pays a compare per call, not a call.
// Load in particular sits within a few nodes of the inliner's budget; a
// signature or body change that tips any of the six over fails here rather
// than as a few per cent on a benchmark.
func TestSeamInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-m", "./stack", "./queue")
	cmd.Dir = ".." // the module root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./stack ./queue: %v\n%s", err, out)
	}
	// The compiler reports "<file>:<line>:<col>: inlining call to <callee>",
	// with the instantiation's shape in brackets for generic callees.
	callees := map[string]*regexp.Regexp{
		"(*Pool).Enter":   regexp.MustCompile(`inlining call to reclaim\.\(\*Pool\)\.Enter$`),
		"(*Pool).Exit":    regexp.MustCompile(`inlining call to reclaim\.\(\*Pool\)\.Exit$`),
		"Load":            regexp.MustCompile(`inlining call to reclaim\.Load\[.*\]$`),
		"Retire":          regexp.MustCompile(`inlining call to reclaim\.Retire\[.*\]$`),
		"(*Recycler).Get": regexp.MustCompile(`inlining call to reclaim\.\(\*Recycler\[.*\]\)\.Get$`),
		"(*Recycler).Put": regexp.MustCompile(`inlining call to reclaim\.\(\*Recycler\[.*\]\)\.Put$`),
	}
	lines := strings.Split(string(out), "\n")
	for _, pkg := range []string{"stack/", "queue/"} {
		for name, re := range callees {
			found := false
			for _, l := range lines {
				if strings.HasPrefix(l, pkg) && re.MatchString(l) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no call to reclaim.%s is inlined in ./%s", name, pkg)
			}
		}
	}
}
