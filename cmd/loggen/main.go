// Command loggen writes the calibrated synthetic query-log corpus to disk,
// one file per dataset, one log entry per line. Entries are streamed to
// disk as they are generated — output never accumulates in memory,
// though the generator's duplicate-emission pool still grows with the
// number of distinct valid queries.
//
// Usage:
//
//	loggen [-scale 0.0001] [-seed 2017] [-out corpus/]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sparqlog/internal/loggen"
)

func main() {
	scale := flag.Float64("scale", 0.0001, "corpus scale relative to the paper's 180M queries")
	seed := flag.Int64("seed", 2017, "generator seed")
	out := flag.String("out", "corpus", "output directory")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loggen: unexpected argument %q\nusage: loggen [-scale 0.0001] [-seed 2017] [-out corpus/]\n", flag.Arg(0))
		os.Exit(2)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "loggen:", err)
		os.Exit(1)
	}
	for _, spec := range loggen.CorpusSpecs(*scale, *seed) {
		name := strings.NewReplacer("/", "_", " ", "_").Replace(spec.Profile.Name) + ".log"
		path := filepath.Join(*out, name)
		if err := writeLog(path, spec); err != nil {
			fmt.Fprintln(os.Stderr, "loggen:", err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %8d entries -> %s\n", spec.Profile.Name, spec.N, path)
	}
}

func writeLog(path string, spec loggen.CorpusSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := loggen.WriteLog(f, spec.Profile, spec.N, spec.Seed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
