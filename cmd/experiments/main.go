// Command experiments regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	experiments                      # run everything at the default scale
//	experiments -run fig9,fig11      # selected artifacts only
//	experiments -scale 0.2           # replay 20% of the Table 2 trace lengths
//	experiments -full                # full Table 1 geometry and trace lengths
//	experiments -ext                 # ... followed by every extension study
//	experiments -out results.txt     # also write the report to a file
//
// Artifacts: table1 table2 fig2 fig4 fig8 fig9 fig10 fig11 fig12 fig13 fig14;
// -list prints them with the extension studies (ext-*). One invocation is
// one session, so experiments that share replays run them once.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"across"
	"across/internal/experiments"
)

// ids lists a slice of the registry in its own order.
func ids(es []experiments.Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func main() {
	var (
		runList = flag.String("run", "", "comma-separated experiment ids (default: all)")
		scale   = flag.Float64("scale", 0, "fraction of Table 2 request counts to replay (default 0.05; 1.0 with -full)")
		full    = flag.Bool("full", false, "use the full 128 GiB Table 1 geometry and full trace lengths")
		noAge   = flag.Bool("no-age", false, "skip the 90%-used device warm-up (faster, less faithful)")
		workers = flag.Int("workers", 0, "parallel replays (default GOMAXPROCS)")
		out     = flag.String("out", "", "also write the report to this file")
		ext     = flag.Bool("ext", false, "also run the extension studies ("+strings.Join(ids(experiments.Extensions()), ", ")+")")
		seed    = flag.Int64("seed", 0, "workload seed offset (stability checks)")
		format  = flag.String("format", "text", "table format: text, markdown, csv")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range across.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := across.ExperimentConfigDefaults()
	if *full {
		cfg.SSD = across.Table1Config()
		cfg.Scale = 1.0
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	cfg.Age = !*noAge
	cfg.Workers = *workers
	cfg.SeedOffset = *seed
	cfg.Format = *format

	var w io.Writer = os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		outFile = f
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "Across-FTL experiment harness — device %s, trace scale %.3f, aged=%v\n\n",
		cfg.SSD.String(), cfg.Scale, cfg.Age)

	start := time.Now()
	run := ids(experiments.All())
	if *runList != "" {
		run = strings.Split(*runList, ",")
	} else if *ext {
		run = append(run, ids(experiments.Extensions())...)
	}
	sess, err := experiments.NewSession(cfg)
	for i := 0; err == nil && i < len(run); i++ {
		err = experiments.RunOne(strings.TrimSpace(run[i]), sess, w)
	}
	if err != nil {
		if outFile != nil {
			outFile.Close()
		}
		fatal(err)
	}
	fmt.Fprintf(w, "completed in %s\n", time.Since(start).Round(time.Millisecond))
	// A failed close means the -out report is truncated on disk even though
	// stdout looked complete; that must not exit 0.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fatal(fmt.Errorf("writing -out %s: %w", *out, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
