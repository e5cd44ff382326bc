package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/fleet"
	"repro/internal/service"
)

// cmdEval evaluates against a running mppmd instead of in-process: the
// CLI face of the /v1/eval wire protocol. The exchange defaults to the
// binary stream format when the server's advertised wire version
// matches this build (negotiated via /v1/version, exactly like fleet
// shard transport) and falls back to NDJSON otherwise; -json forces the
// fallback. Rows print as NDJSON in grid order either way, so output is
// transport-independent.
func cmdEval(ctx context.Context, stdout io.Writer, args []string, stderr io.Writer) error {
	fs := newFlagSet("eval", stderr)
	server := fs.String("server", "", "base URL of a running mppmd (e.g. http://localhost:8080)")
	kind := fs.String("kind", "predict", "evaluation kind: predict, simulate or compare")
	mixesArg := fs.String("mixes", "", `workload mixes: comma-separated programs, ";"-separated mixes (e.g. "mcf,lbm;gamess,milc")`)
	configsArg := fs.String("configs", "", "comma-separated Table 2 LLC configs (empty = server default)")
	contention := fs.String("contention", "", "contention model name (empty = server default)")
	forceJSON := fs.Bool("json", false, "force NDJSON transport instead of the binary wire format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("eval: -server is required")
	}
	req := service.EvalRequest{Kind: *kind, Contention: *contention, Stream: true}
	for _, m := range strings.Split(*mixesArg, ";") {
		if m = strings.TrimSpace(m); m == "" {
			continue
		}
		mix, err := parseMix(m)
		if err != nil {
			return err
		}
		req.Mixes = append(req.Mixes, mix)
	}
	if len(req.Mixes) == 0 {
		return fmt.Errorf("eval: -mixes is required")
	}
	for _, c := range strings.Split(*configsArg, ",") {
		if c = strings.TrimSpace(c); c != "" {
			req.Configs = append(req.Configs, c)
		}
	}

	cl := fleet.NewClient(*server, nil)
	// The version check negotiates the binary stream; a client that
	// skips it speaks JSON and NDJSON.
	if !*forceJSON {
		if err := cl.Check(ctx); err != nil {
			return fmt.Errorf("eval: %w", err)
		}
	}
	return cl.StreamEval(ctx, req, func(sc *service.ScenarioResult) error {
		line, err := service.MarshalScenarioLine(sc)
		if err != nil {
			return err
		}
		_, err = stdout.Write(line)
		return err
	})
}
