package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module in a temp dir: files maps
// slash-relative paths to contents, and a go.mod for module "tmpmod" is
// added automatically.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadModuleSkipsVendoredAndHiddenDirs pins the module-walk skip
// rules: vendored, hidden, underscore and testdata trees are invisible
// to LoadModule — a vendored copy of a dependency must never be linted
// as module code.
func TestLoadModuleSkipsVendoredAndHiddenDirs(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a.go":                "package tmpmod\n\nfunc A() int { return 1 }\n",
		"pkg/pkg.go":          "package pkg\n\nfunc P() int { return 2 }\n",
		"vendor/dep/dep.go":   "package dep\n\nfunc D() int { return 0 == 0.0 }\n", // would not even type-check
		".hidden/h.go":        "package hidden\n\nfunc H() {}\n",
		"_attic/old.go":       "package attic\n\nfunc O() {}\n",
		"testdata/fixture.go": "package fixture\n\nfunc F() {}\n",
		"pkg/testdata/t.go":   "package t\n\nfunc T() {}\n",
		"docs/notes.txt":      "not go\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"tmpmod", "tmpmod/pkg"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("LoadModule packages = %v, want %v", got, want)
	}
}

// TestLoadModuleStopsAtNestedModule pins the module boundary: a nested
// directory with its own go.mod is another module, so neither it nor
// anything below it is loaded — here it would not even type-check as
// part of this one.
func TestLoadModuleStopsAtNestedModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a.go":             "package tmpmod\n\nfunc A() int { return 1 }\n",
		"pkg/pkg.go":       "package pkg\n\nfunc P() int { return 2 }\n",
		"bench/go.mod":     "module tmpmod/bench\n\ngo 1.22\n",
		"bench/main.go":    "package main\n\nfunc main() { var x int = \"s\" }\n",
		"bench/inner/i.go": "package inner\n\nfunc I() {}\n",
		"pkg/sub/go.mod":   "module other\n\ngo 1.22\n",
		"pkg/sub/sub.go":   "package sub\n\nfunc S() {}\n",
		"pkg/notmod/n.go":  "package notmod\n\nfunc N() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"tmpmod", "tmpmod/pkg", "tmpmod/pkg/notmod"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("LoadModule packages = %v, want %v", got, want)
	}
	if w := l.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected load warnings: %v", w)
	}
}

// TestLoadDirBuildTagExcluded pins constraint selection: a file behind
// an unsatisfied build tag is not parsed, not type-checked, and cannot
// contribute findings — the tagged twin here would otherwise redeclare
// the same symbol and fail the load.
func TestLoadDirBuildTagExcluded(t *testing.T) {
	root := writeModule(t, map[string]string{
		"pkg/normal.go": "package pkg\n\nfunc Same() int { return 1 }\n",
		"pkg/tagged.go": "//go:build sometag\n\npackage pkg\n\nfunc Same() int { return 2 }\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "pkg"), "tmpmod/pkg")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (tagged.go excluded by constraint)", len(p.Files))
	}
	if len(p.TypeErrors) != 0 {
		t.Fatalf("type errors with tagged file excluded: %v", p.TypeErrors)
	}
	name := p.Fset.Position(p.Files[0].Pos()).Filename
	if filepath.Base(name) != "normal.go" {
		t.Fatalf("selected file = %s, want normal.go", name)
	}
}

// TestLoadDirSyntaxError pins the failure mode for unparseable source:
// LoadDir surfaces a parse error naming the file instead of analyzing a
// half-built package.
func TestLoadDirSyntaxError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nfunc broken( {\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir(filepath.Join(root, "bad"), "tmpmod/bad")
	if err == nil {
		t.Fatal("LoadDir accepted a syntax-error package")
	}
	if !strings.Contains(err.Error(), "parse") || !strings.Contains(err.Error(), "bad.go") {
		t.Fatalf("error = %v, want a parse error naming bad.go", err)
	}
}

// TestImportUnresolvableDegradesToPlaceholder pins the loader's
// resilience contract: an import the source importer cannot resolve
// becomes an empty placeholder package plus a load warning, and the
// importing package still loads with partial type information instead
// of aborting the whole module run.
func TestImportUnresolvableDegradesToPlaceholder(t *testing.T) {
	root := writeModule(t, map[string]string{
		"uses/uses.go": "package uses\n\nimport \"example.invalid/nosuchdep\"\n\nvar X = nosuchdep.Value\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "uses"), "tmpmod/uses")
	if err != nil {
		t.Fatalf("LoadDir failed hard on an unresolvable import: %v", err)
	}
	found := false
	for _, w := range l.Warnings() {
		if strings.Contains(w, "example.invalid/nosuchdep") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no load warning for the placeholder import; warnings = %v", l.Warnings())
	}
	// The undefined selector is a type error, recorded, not fatal.
	if len(p.TypeErrors) == 0 {
		t.Fatal("expected type-check diagnostics against the placeholder package")
	}
}

// TestLoadDirImportCycle pins the cycle guard: a self-import reports a
// cycle instead of recursing forever.
func TestLoadDirImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"cyc/cyc.go": "package cyc\n\nimport \"tmpmod/cyc\"\n\nvar X = cyc.X\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "cyc"), "tmpmod/cyc")
	if err != nil {
		// A hard cycle error is acceptable...
		if !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("error = %v, want an import-cycle diagnosis", err)
		}
		return
	}
	// ...as is degrading to a type error, as long as the cycle is named.
	all := l.Warnings()
	for _, e := range p.TypeErrors {
		all = append(all, e.Error())
	}
	for _, s := range all {
		if strings.Contains(s, "cycle") {
			return
		}
	}
	t.Fatalf("self-import neither errored nor diagnosed a cycle; warnings=%v typeErrors=%v", l.Warnings(), p.TypeErrors)
}
