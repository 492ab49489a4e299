// Command bench is the repository's benchmark: four workloads over the cold,
// query and apply paths, each checked against the concrete
// simulator, with a traced run that attributes time to the module's layers.
// See README.md; BENCHMARK.json at the repository root is its contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: query pairs, flapped links, origin edits, bursts")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed rounds measure")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.jsonl")
		selftest = flag.Bool("selftest", false, "corrupt one expected answer and one expected abstract size; the run must fail")
		compare  = flag.Bool("compare", false, "compare two run files: -compare a.jsonl b.jsonl")
		list     = flag.Bool("list", false, "list workloads and metrics")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the catalogue defines it")
		appendTo = flag.String("append", "", "also append the run record to this JSONL file (input of -compare)")
		outdir   = flag.String("outdir", "out", "directory for traces, run records and scratch tenant data")
	)
	flag.Parse()
	// The server logs every recovery; a benchmark's stderr is for the harness.
	log.SetOutput(io.Discard)

	switch {
	case *list:
		printCatalogue(os.Stdout)
		return
	case *contract:
		os.Stdout.Write(contractJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.jsonl b.jsonl")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal("unknown workload %q (try -list)", *name)
	}
	o := runOptions{seed: *seed, seconds: *seconds, selftest: *selftest, outdir: *outdir, setups: setupRepeats}
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		fatal("%v", err)
	}
	var rec *record
	var err error
	if *trace != 0 {
		rec, err = runTraced(w, o)
	} else {
		rec, err = runUntraced(w, o)
	}
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	if err := writeRecord(rec, o.outdir, *appendTo); err != nil {
		fatal("%v", err)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "bench: wrong answer:", f)
	}
	fmt.Println(resultLine(rec))
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.name, rec.Failed, rec.Attempted)
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// resultLine is the contract's last stdout line: exactly correct, attempted,
// failed and metrics, each metric exactly value and unit.
func resultLine(rec *record) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]mv{}}
	for k, v := range rec.Metrics {
		out.Metrics[k] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal("encode result: %v", err)
	}
	return string(b)
}

// writeRecord keeps the full record of the latest run per workload and mode,
// and appends it to a set file when asked.
func writeRecord(rec *record, outdir, appendTo string) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	mode := "run"
	if rec.Trace {
		mode = "traced"
	}
	if err := os.WriteFile(filepath.Join(outdir, fmt.Sprintf("%s-%s.json", mode, rec.Workload)), line, 0o644); err != nil {
		return err
	}
	if appendTo == "" {
		return nil
	}
	f, err := os.OpenFile(appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printCatalogue(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (every workload, untraced run):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %-6s better, bound %.0f%%\n", m.name, m.unit, m.better, 100*m.bound)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %-6s %s better\n", m.name, m.unit, m.better)
	}
}
