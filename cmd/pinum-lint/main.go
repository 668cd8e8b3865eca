// Command pinum-lint runs the repository's invariant analyzers
// (internal/lint) over the tree: determinism of result-affecting
// packages, immutability of published shared caches, cost-arithmetic
// locality, hot-path allocation discipline, and directive hygiene.
//
// Usage:
//
//	go run ./cmd/pinum-lint ./...          # the CI invocation
//	go run ./cmd/pinum-lint -list          # describe the analyzers
//	go run ./cmd/pinum-lint -run determinism,hotpath ./...
//
// Exit status: 0 clean, 1 findings, 2 load/usage errors. The process
// chdirs to the module root on startup (import resolution runs through
// the go tool), so it may be invoked from any directory inside the
// module.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/pinumdb/pinum/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*run, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "pinum-lint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinum-lint: %v\n", err)
		os.Exit(2)
	}
	if err := os.Chdir(root); err != nil {
		fmt.Fprintf(os.Stderr, "pinum-lint: %v\n", err)
		os.Exit(2)
	}

	loader := lint.NewLoader()
	pkgs, err := loader.Load(root, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinum-lint: %v\n", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinum-lint: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			rel, rerr := filepath.Rel(root, pos.Filename)
			if rerr != nil {
				rel = pos.Filename
			}
			fmt.Printf("%s:%d:%d: %s [%s]\n", rel, pos.Line, pos.Column, d.Message, d.Analyzer)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "pinum-lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// moduleRoot locates the directory of the main module's go.mod.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD is empty)")
	}
	return filepath.Dir(gomod), nil
}
