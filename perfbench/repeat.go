package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchConfig is the part of BENCHMARK.json the benchmark reads.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []configMetric `json:"end_to_end"`
	PerLayer []configMetric `json:"per_layer"`
}

type configMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// repeatRuns is the steadiness self-report: it runs the workload n times as
// child processes, seeds seed..seed+n-1, and prints each end-to-end metric's
// median, quartiles and quartile spread. A spread over the metric's bound is
// flagged FAIL, one over a third of it (the margin a steady benchmark keeps)
// WARN. The exit code is 1 when a run fails or any metric is flagged FAIL.
// BENCHMARK.json is read from the working directory, the checkout root the
// benchmark runs from.
func repeatRuns(name string, seed uint64, seconds, n int, stdout, stderr io.Writer) int {
	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	values := map[string][]float64{}
	status := 0
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, parseErr := lastResult(buf.Bytes())
		if runErr != nil || parseErr != nil || !res.Correct {
			fmt.Fprintf(stderr, "perfbench: %s seed %d: run error %v, result error %v\n", name, s, runErr, parseErr)
			status = 1
			continue
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", s, bytes.TrimSpace(lastLine(buf.Bytes())))
	}
	fmt.Fprintf(stdout, "%s, %d runs of %d s:\n", name, n, seconds)
	fmt.Fprintf(stdout, "  %-16s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range cfg.EndToEnd {
		xs := values[m.Name]
		if len(xs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		sp := spread(xs)
		flag := ""
		if m.Bound != nil {
			switch {
			case sp > *m.Bound:
				flag = "FAIL"
				status = 1
			case sp > *m.Bound/3:
				flag = "WARN"
			}
		}
		bound := "-"
		if m.Bound != nil {
			bound = strconv.FormatFloat(*m.Bound, 'f', -1, 64)
		}
		fmt.Fprintf(stdout, "  %-16s %14.6g %14.6g %14.6g %7.2f%% %6s %s\n", m.Name, q1, q2, q3, 100*sp, bound, flag)
	}
	return status
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func lastResult(out []byte) (result, error) {
	var r result
	err := json.Unmarshal(lastLine(out), &r)
	return r, err
}
