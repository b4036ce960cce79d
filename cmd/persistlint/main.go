// Command persistlint runs the internal/lint persistence-discipline
// analyzers over module packages, loading them itself through
// `go list -export`:
//
//	go run ./cmd/persistlint ./...
//
// It prints findings as file:line:col: message (analyzer) and exits 2
// when any survive //lint:ignore suppression, mirroring go vet.
package main

import (
	"flag"
	"fmt"
	"os"

	"delayfree/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: persistlint [package pattern ...]\n")
	}
	flag.Parse()
	pkgs, err := lint.LoadModule(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "persistlint: %v\n", err)
		os.Exit(1)
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "persistlint: %v\n", err)
			os.Exit(1)
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d.String())
		}
		if len(diags) > 0 {
			exit = 2
		}
	}
	os.Exit(exit)
}
