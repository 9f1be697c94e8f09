// Command sftembed solves one SFT-embedding instance from JSON and
// prints the resulting embedding, its cost breakdown, and a
// flow-replay verification.
//
// Usage:
//
//	sftgen -nodes 40 > inst.json
//	sftembed -in inst.json                 # two-stage algorithm (default)
//	sftembed -in inst.json -algo sca       # baselines: sca, rsa, onenode
//	sftembed -in inst.json -algo bks       # best-known reference
//	sftembed -in inst.json -algo ilp       # exact ILP (small instances!)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sftree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sftembed:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sftembed", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "instance JSON file (required)")
		algo    = fs.String("algo", "msa", "algorithm: msa, msa1 (stage one only), sca, rsa, onenode, bks, ilp")
		seed    = fs.Int64("seed", 1, "seed for the rsa baseline")
		tm      = fs.Bool("tm", false, "use Takahashi-Matsuyama instead of KMB for Steiner trees")
		timeout = fs.Duration("timeout", time.Minute, "wall-time budget for -algo ilp")
		svgOut  = fs.String("svg", "", "also render the embedding to this SVG file (needs coordinates)")
		dotOut  = fs.String("dot", "", "also emit the embedding as Graphviz DOT to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var doc sftree.InstanceDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fmt.Errorf("parse %s: %w", *in, err)
	}
	opts := sftree.Options{}
	if *tm {
		opts.Steiner = sftree.SteinerTM
	}

	var (
		emb  *sftree.Embedding
		note string
	)
	switch *algo {
	case "msa":
		res, err := sftree.SolveTwoStage(doc.Network, doc.Task, opts)
		if err != nil {
			return err
		}
		emb = res.Embedding
		note = fmt.Sprintf("stage-one cost %.3f, %d stage-two moves", res.Stage1Cost, res.MovesAccepted)
	case "msa1":
		res, err := sftree.SolveStageOne(doc.Network, doc.Task, opts)
		if err != nil {
			return err
		}
		emb = res.Embedding
	case "sca":
		res, err := sftree.SolveSCA(doc.Network, doc.Task, opts)
		if err != nil {
			return err
		}
		emb = res.Embedding
	case "rsa":
		res, err := sftree.SolveRSA(doc.Network, doc.Task, *seed, opts)
		if err != nil {
			return err
		}
		emb = res.Embedding
	case "onenode":
		res, err := sftree.SolveOneNode(doc.Network, doc.Task, opts)
		if err != nil {
			return err
		}
		emb = res.Embedding
	case "bks":
		res, err := sftree.SolveBestKnown(doc.Network, doc.Task)
		if err != nil {
			return err
		}
		emb = res.Embedding
	case "ilp":
		res, err := sftree.SolveILP(doc.Network, doc.Task, sftree.ILPOptions{WarmStart: true, TimeLimit: *timeout})
		if err != nil {
			return err
		}
		if res.Embedding == nil {
			return fmt.Errorf("ILP found no integral solution within budget (bound %.3f)", res.Bound)
		}
		emb = res.Embedding
		note = fmt.Sprintf("proven=%v bound=%.3f nodes=%d", res.Proven, res.Bound, res.Nodes)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	bd := doc.Network.Cost(emb)
	rep, err := sftree.Replay(doc.Network, emb)
	if err != nil {
		return fmt.Errorf("replay verification failed: %w", err)
	}
	fmt.Fprint(w, emb.String())
	fmt.Fprintf(w, "cost: total %.3f (setup %.3f + link %.3f)\n", bd.Total, bd.Setup, bd.Link)
	fmt.Fprintf(w, "replay: delivered %d/%d, max edge load %d copies, total %.3f\n",
		rep.Delivered, len(doc.Task.Destinations), rep.MaxEdgeLoad, rep.TotalCost)
	if note != "" {
		fmt.Fprintf(w, "note: %s\n", note)
	}
	if *svgOut != "" {
		blob, err := sftree.RenderSVG(doc.Network, emb, nil, "sftembed: "+*algo)
		if err != nil {
			return fmt.Errorf("render svg: %w", err)
		}
		if err := os.WriteFile(*svgOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *svgOut)
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, sftree.RenderDOT(doc.Network, emb, nil, "sftembed: "+*algo), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *dotOut)
	}
	return nil
}
