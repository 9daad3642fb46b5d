// Command tspu-lab regenerates the paper's tables and figures against a
// freshly built lab. Each experiment gets its own deterministic lab so runs
// are independent and reproducible:
//
//	tspu-lab -list
//	tspu-lab -exp table1,fig4
//	tspu-lab -exp all -seed 7 -endpoints 4000 -ases 160
//
// -pcap, -dot and -topo write one artifact and exit: a Fig. 2-style
// blocking capture, the Fig. 10/11 traceroute graph, or the lab topology
// (Fig. 1 style), the last two as Graphviz DOT with TSPU links in red:
//
//	tspu-lab -seed 3 -endpoints 400 -ases 20 -dot out.dot
//
// Multi-seed fleet runs fan (experiment, seed, shard) jobs across workers
// and aggregate the per-seed statistics; the aggregate report is
// byte-identical for any -workers value:
//
//	tspu-lab -exp table1 -seeds 20 -workers 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tspusim"
	"tspusim/internal/fleet"
	"tspusim/internal/hostnet"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/tlsx"
	"tspusim/internal/topo"
)

//tspuvet:impure command-line driver; wall time reaches only stderr progress and metrics
func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		seed      = flag.Uint64("seed", 1, "lab seed")
		endpoints = flag.Int("endpoints", 2000, "RU endpoint population (paper: 4,005,138)")
		ases      = flag.Int("ases", 40, "endpoint AS count (paper: 4,986)")
		echo      = flag.Int("echo", 140, "echo server count (paper: 1,404)")
		tranco    = flag.Int("tranco", 2000, "Tranco list size (paper: 11,325)")
		registry  = flag.Int("registry", 2000, "registry sample size (paper: 10,000)")
		pcapPath  = flag.String("pcap", "", "write a Fig. 2-style SNI-I blocking capture to this .pcap file and exit")
		dotPath   = flag.String("dot", "", "write the Fig. 10/11 traceroute graph as Graphviz DOT to this file and exit")
		topoPath  = flag.String("topo", "", "write the lab topology (Fig. 1 style) as Graphviz DOT to this file and exit")
		outDir    = flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
		workers   = flag.Int("workers", 0, "fleet worker goroutines (0 = sequential legacy path)")
		seeds     = flag.Int("seeds", 1, "replicas per experiment, each on a derived seed")
		shards    = flag.Int("shards", 1, "split the endpoint population across this many shards per replica")
		timeout   = flag.Duration("timeout", 0, "per-job timeout for fleet runs (0 = none)")
	)
	flag.Parse()

	if *list {
		for _, e := range tspusim.Experiments() {
			fmt.Printf("%-10s %-45s %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	if *pcapPath != "" {
		if err := writeBlockingPCAP(*pcapPath, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "pcap:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (open in Wireshark: the ServerHello comes back as RST/ACK)\n", *pcapPath)
		return
	}

	opts := tspusim.Options{
		Seed:      *seed,
		Endpoints: *endpoints,
		ASes:      *ases,
		EchoServers: func() int {
			if *echo > 0 {
				return *echo
			}
			return 140
		}(),
		TrancoN:   *tranco,
		RegistryN: *registry,
	}

	if *dotPath != "" || *topoPath != "" {
		if err := writeDOT(tspusim.NewLab(opts), *dotPath, *topoPath); err != nil {
			fmt.Fprintln(os.Stderr, "dot:", err)
			os.Exit(1)
		}
		return
	}

	ids := tspusim.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	var clean []string
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id != "" {
			clean = append(clean, id)
		}
	}

	if *workers > 0 || *seeds > 1 || *shards > 1 {
		if runFleet(clean, opts, *seeds, *shards, *workers, *timeout, *outDir) {
			os.Exit(1)
		}
		return
	}

	var okIDs, failedIDs []string
	for _, id := range clean {
		lab := tspusim.NewLab(opts)
		start := time.Now() //tspuvet:allow walltime: per-experiment timing is stderr progress, never experiment output
		out, err := tspusim.Run(lab, id)
		fmt.Fprintf(os.Stderr, "%s [%.2fs]\n", id, time.Since(start).Seconds()) //tspuvet:allow walltime: stderr progress only
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			failedIDs = append(failedIDs, id)
			continue
		}
		fmt.Println(out)
		ok := true
		if *outDir != "" {
			if err := writeOut(*outDir, id+".txt", out); err != nil {
				fmt.Fprintln(os.Stderr, "out:", err)
				ok = false
			}
		}
		if ok {
			okIDs = append(okIDs, id)
		} else {
			failedIDs = append(failedIDs, id)
		}
	}
	fmt.Print(summaryLine(len(okIDs), failedIDs))
	if len(failedIDs) > 0 {
		os.Exit(1)
	}
}

// runFleet drives the parallel multi-seed path and reports whether any job
// failed. The aggregate report goes to stdout; progress and timing metrics
// go to stderr so stdout stays byte-identical across worker counts.
//
//tspuvet:impure fleet metrics and progress are wall-clocked diagnostics on stderr; stdout is seed-pure
func runFleet(ids []string, opts tspusim.Options, seeds, shards, workers int, timeout time.Duration, outDir string) bool {
	cfg := fleet.Config{Workers: workers, Timeout: timeout}
	total := len(ids) * seeds * shards
	if stderrIsTerminal() {
		cfg.OnUpdate = func(s fleet.Snapshot) {
			fmt.Fprintf(os.Stderr, "\rfleet: %d/%d done, %d running, %d failed   ", s.Done, total, s.Running, s.Failed)
		}
	}
	rep := tspusim.RunFleet(opts, ids, seeds, shards, cfg)
	if cfg.OnUpdate != nil {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Print(rep.RenderAggregate())
	fmt.Fprintln(os.Stderr, rep.Metrics.String())
	for _, res := range rep.Failed() {
		if pe, ok := res.Err.(*fleet.PanicError); ok {
			fmt.Fprintf(os.Stderr, "--- stack for %s ---\n%s", res.Job.Label(), pe.Stack)
		}
	}
	failed := len(rep.Failed()) > 0
	if outDir != "" {
		for _, res := range rep.Results {
			if res.Failed() {
				continue
			}
			name := fmt.Sprintf("%s.seed%d.shard%d.txt", res.Job.Exp, res.Job.SeedIndex, res.Job.Shard)
			if err := writeOut(outDir, name, res.Output); err != nil {
				fmt.Fprintln(os.Stderr, "out:", err)
				failed = true
			}
		}
		if err := writeOut(outDir, "aggregate.txt", rep.RenderAggregate()); err != nil {
			fmt.Fprintln(os.Stderr, "out:", err)
			failed = true
		}
	}
	return failed
}

// summaryLine renders the batch diagnosability footer: "N ok, M failed: ids".
func summaryLine(ok int, failedIDs []string) string {
	s := fmt.Sprintf("%d ok, %d failed", ok, len(failedIDs))
	if len(failedIDs) > 0 {
		s += ": " + strings.Join(failedIDs, ", ")
	}
	return s + "\n"
}

func writeOut(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if !strings.HasSuffix(content, "\n") {
		content += "\n"
	}
	return os.WriteFile(dir+"/"+name, []byte(content), 0o644)
}

func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// writeDOT writes the lab topology to topoPath and the traceroute graph of
// every TSPU-positive endpoint to dotPath; an empty path skips that graph.
func writeDOT(lab *tspusim.Lab, dotPath, topoPath string) error {
	if topoPath != "" {
		if err := os.WriteFile(topoPath, []byte(lab.TopologyDOT(false)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (render with: neato -Tsvg %s)\n", topoPath, topoPath)
	}
	if dotPath == "" {
		return nil
	}
	study := measure.RunTracerouteStudy(lab, measure.FragScan(lab, false, true))
	if err := os.WriteFile(dotPath, []byte(study.DOT), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d traceroutes; render with: dot -Tsvg %s)\n", dotPath, len(study.Traces), dotPath)
	return nil
}

// writeBlockingPCAP captures an SNI-I blocking exchange on the vantage's
// device link and writes it as a real pcap file.
func writeBlockingPCAP(path string, seed uint64) error {
	lab := tspusim.NewLab(tspusim.Options{Seed: seed, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
	v := lab.Vantages[topo.ERTelecom]
	cap := netem.NewCapture("fig2")
	v.SymLink.Tap(cap)

	lab.US1.Listen(443, hostnet.ListenOptions{
		OnData: func(c *hostnet.TCPConn, d []byte) {
			c.Send([]byte("SERVERHELLO....."))
			c.Send([]byte("CERTIFICATE....."))
		},
	})
	conn := v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
	ch := (&tlsx.ClientHelloSpec{ServerName: "twitter.com"}).Build()
	conn.OnEstablished = func() { conn.Send(ch) }
	lab.Sim.Run()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Include entries so both sides of the device's rewrite are visible.
	return cap.WritePCAP(f, true)
}
