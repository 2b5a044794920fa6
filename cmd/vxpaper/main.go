// Command vxpaper regenerates the paper's evaluation artifacts: the
// Table 1, 3, 4 and 5 rows as text, the value-flow-graph Figures 2 (the
// Darknet graph with its two highlighted inefficiencies) and 3 (the
// worked construction example) as Graphviz DOT, and the Figure 6
// overhead study — coarse- and fine-grained profiling overhead on every
// workload and both device profiles, under the paper's measurement
// configuration (no sampling for coarse analysis; kernel/block sampling
// of 20 for benchmarks and 100 with hot-kernel filtering for
// applications).
//
// Usage:
//
//	vxpaper -table 1|3|4|5 [-scale 1] [-o table.txt]
//	vxpaper -fig 2|3|6 [-scale 1] [-o darknet.dot]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"valueexpert/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command, returning its exit status: 2 for a usage
// error, 1 for an unknown artifact number or a failed regeneration.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vxpaper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "table to regenerate: 1, 3, 4 or 5")
	fig := fs.Int("fig", 0, "figure to regenerate: 2 (Darknet value flow graph), 3 (worked example) or 6 (overhead)")
	scale := fs.Int("scale", 1, "problem-size divisor (1 = full scale)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if (*table == 0) == (*fig == 0) {
		fmt.Fprintln(stderr, "vxpaper: give exactly one of -table or -fig (see -h)")
		return 2
	}

	opts := experiments.Options{Scale: *scale}
	var text, note string
	var err error
	if *table != 0 {
		text, err = renderTable(*table, opts)
	} else {
		text, note, err = renderFigure(*fig, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "vxpaper:", err)
		return 1
	}
	if *out == "" {
		fmt.Fprint(stdout, text)
	} else if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fmt.Fprintln(stderr, "vxpaper:", err)
		return 1
	} else {
		fmt.Fprintf(stderr, "wrote %s\n", *out)
	}
	if note != "" {
		fmt.Fprintln(stderr, note)
	}
	return 0
}

// renderTable regenerates one of the paper's tables as text.
func renderTable(n int, opts experiments.Options) (string, error) {
	switch n {
	case 1:
		res, err := experiments.Table1(opts)
		if err != nil {
			return "", err
		}
		out := res.Render()
		if missing := res.MissingExpected(); len(missing) > 0 {
			out += fmt.Sprintf("\nWARNING: patterns expected by the paper but not detected: %v\n", missing)
		}
		return out, nil
	case 3, 4:
		res, err := experiments.Table3(opts)
		if err != nil {
			return "", err
		}
		if n == 4 {
			return res.RenderTable4(), nil
		}
		return res.Render(), nil
	case 5:
		res, err := experiments.Table5(opts)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}
	return "", fmt.Errorf("unknown table %d (have 1, 3, 4, 5)", n)
}

// renderFigure regenerates one of the paper's figures: the DOT source of
// Figures 2 and 3 with a one-line summary note, or the Figure 6 text.
func renderFigure(n int, opts experiments.Options) (text, note string, err error) {
	switch n {
	case 2:
		res, err := experiments.Figure2(opts)
		if err != nil {
			return "", "", err
		}
		return res.DOT, fmt.Sprintf("Darknet value flow graph: %d nodes, %d edges, %d redundant (red) edges",
			res.Nodes, res.Edges, res.RedEdges), nil
	case 3:
		res, err := experiments.Figure3(opts)
		if err != nil {
			return "", "", err
		}
		return res.DOT, fmt.Sprintf("Figure 3 example: full graph %d edges, slice %d edges, important graph %d edges",
			res.Full.NumEdges(), res.Slice.NumEdges(), res.Important.NumEdges()), nil
	case 6:
		res, err := experiments.Figure6(opts)
		if err != nil {
			return "", "", err
		}
		return res.Render(), "", nil
	}
	return "", "", fmt.Errorf("unknown figure %d (have 2, 3, 6)", n)
}
