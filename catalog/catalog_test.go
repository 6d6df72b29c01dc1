package catalog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/cds-suite/cds/internal/testprocs"
	"github.com/cds-suite/cds/internal/xrand"
	"github.com/cds-suite/cds/lincheck"
	"github.com/cds-suite/cds/reclaim"
)

// excluded lists the exported New* constructors of the shape-bearing
// packages that deliberately have no row, each with the reason.
var excluded = map[string]string{
	"cmap.NewHash":  "builds a hash function, not a map",
	"queue.NewSPSC": "role-restricted to one producer and one consumer; no multi-client window or cell can drive it (T1 prices it single-threaded)",
}

// TestEveryConstructorIsRegistered parses the family packages for exported
// New* constructors and tables.go for the constructors the rows call: a
// variant cannot be added to a family without a row here or a reasoned
// exclusion above.
func TestEveryConstructorIsRegistered(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	tables, err := parser.ParseFile(fset, "tables.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(tables, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "New") {
			if pkg, ok := sel.X.(*ast.Ident); ok {
				used[pkg.Name+"."+sel.Sel.Name] = true
			}
		}
		return true
	})

	declared := map[string]bool{}
	for _, pkg := range []string{"stack", "queue", "list", "cmap", "skiplist", "pqueue", "deque", "counter", "fc"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no sources (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "New") {
					declared[pkg+"."+fn.Name.Name] = true
				}
			}
		}
	}
	for ctor := range declared {
		switch reason, skip := excluded[ctor]; {
		case used[ctor] && skip:
			t.Errorf("%s has a row and an exclusion (%s)", ctor, reason)
		case !used[ctor] && !skip:
			t.Errorf("%s is in no catalogue row and not in the exclusion list", ctor)
		}
	}
	for ctor := range excluded {
		if !declared[ctor] {
			t.Errorf("exclusion %s names no constructor", ctor)
		}
	}
}

// TestRowsAreWellFormed checks what the harness loops assume of every row.
func TestRowsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rows() {
		name := r.Family + "/" + r.Label
		if seen[name] {
			t.Errorf("%s: duplicate row", name)
		}
		seen[name] = true
		if r.Progress == "" {
			t.Errorf("%s: no progress guarantee", name)
		}
		for _, o := range r.Options() {
			s, dom := r.New(o)
			if s == nil || dom == nil {
				t.Fatalf("%s%s: New returned nil", name, o.Suffix())
			}
			if (o.Scheme != GC) != dom.Deferred() {
				t.Errorf("%s%s: domain %s does not match the scheme", name, o.Suffix(), dom.Name())
			}
			r.Worker(s, 0)(0, 1) // the inserting operation runs
		}
	}
	for _, wl := range Workloads() {
		if len(Select(wl.Family, wl.Group)) == 0 {
			t.Errorf("workload %q matches no row", wl.Name)
		}
	}
}

// countingGC is a non-deferring domain that counts the guards it is asked
// for. reclaim.NewPool returns no pool for such a domain, so a structure
// built over it must never ask.
type countingGC struct {
	reclaim.Domain
	guards atomic.Int64
}

func (d *countingGC) NewGuard(slots int) reclaim.Guard {
	d.guards.Add(1)
	return d.Domain.NewGuard(slots)
}

// TestExplicitGCDomainIsTheDefault builds every linearizable row that
// accepts a reclamation domain over an explicit non-deferring one — with
// recycling requested wherever the row admits it, which the options
// document as ignored there — and checks it behaves as the default:
// the row's lincheck windows pass, no guard is ever registered, and
// nothing is retired into the domain.
func TestExplicitGCDomainIsTheDefault(t *testing.T) {
	const clients, ops, rounds = 3, 4, 40
	testprocs.AtLeast(t, 4)
	for _, r := range Rows() {
		if r.Accepts&Reclaim == 0 || r.Relaxed {
			continue
		}
		for _, recycle := range []bool{false, true} {
			if recycle && r.Accepts&(Recycle|RecycleEBR) == 0 {
				continue
			}
			o := Options{Tight: true, Recycle: recycle}
			t.Run(r.Family+"/"+r.Label+o.Suffix(), func(t *testing.T) {
				dom := &countingGC{Domain: reclaim.NewGC()}
				o.dom = dom
				err := lincheck.Stress(r.Model, rounds, clients, func() func(int, *xrand.Rand, *lincheck.Recorder) {
					s := r.build(o)
					return func(client int, rng *xrand.Rand, rec *lincheck.Recorder) {
						step := r.client(s, client, clients)
						for i := 0; i < ops; i++ {
							step(rng, rec)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if n := dom.guards.Load(); n != 0 {
					t.Errorf("registered %d guards with a non-deferring domain", n)
				}
				if dom.Pending() != 0 || dom.Reclaimed() != 0 {
					t.Errorf("gauges = (pending %d, reclaimed %d), want (0, 0)", dom.Pending(), dom.Reclaimed())
				}
			})
		}
	}
}
