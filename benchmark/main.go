// Command benchmark is the repository's benchmark: four request-path
// workloads against a real core.Runtime over loopback HTTP, measured from
// outside the runtime. See README.md.
//
//	go run . --workload ping --seed 1 --seconds 30 --trace 0   # end-to-end metrics
//	go run . --workload ping --seed 1 --seconds 30 --trace 1   # per-layer metrics
//	go run . compare A.jsonl B.jsonl                           # two sets of runs
//	go run . spec                                              # BENCHMARK.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// measuringChildren is how many processes an untraced run measures in, one
// after the other, each for its share of the seconds. Every end-to-end
// metric is the quartile on the better side over them (quietQuartile). Much
// of what moves a number from run to run is fixed when a process starts (the
// fuel calibration, the collector's pacing, where memory lands), and the
// shared host slows the machine for seconds at a time: many short processes
// are many independent draws of the first and leave enough of them outside
// the second.
const measuringChildren = 15

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	child    bool // this process is one of a run's measuring children
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "spec":
			if err := writeSpec(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the payload pools, the deploy order and the pacing jitter")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds of traffic to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", "", "append the full result, with its environment block, to this file")
	flag.BoolVar(&o.child, "child", false, "internal: run as a measuring child process")
	flag.Parse()

	w := workloadByName(o.workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q; have %s", o.workload, strings.Join(workloadNames(), ", ")))
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	// More Ps than cores would let the in-process client and the workers
	// time-slice one core behind the scheduler's back.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS=%d exceeds the %d cores available", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	var err error
	if o.child {
		err = childMain(w, o)
	} else {
		err = parentMain(w, o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// readyLine is what a child prints once set-up is done.
const readyLine = "ready"

// childMain sets the system up, says so, measures and prints a childResult.
func childMain(w *workload, o options) error {
	sys, err := setUp(w, o.seed, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	var res childResult
	if o.trace == 1 {
		res, err = runTraced(sys, o)
	} else {
		res = runUntraced(sys, o)
	}
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if o.trace == 0 {
		if res.Metrics["peak_rss_mb"], err = peakRSSMiB(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// spawn starts this program again as a child and returns how long it took to
// get ready, timed from just before the process was started, and what it
// printed after that.
func spawn(ctx context.Context, o options) (setup time.Duration, rest []byte, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"--child", "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace))
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	setup = time.Since(start)
	if rerr == nil && strings.TrimSpace(line) != readyLine {
		rerr = fmt.Errorf("child said %q before it was ready", line)
	}
	if rerr == nil {
		rest, rerr = io.ReadAll(br)
	}
	if werr := cmd.Wait(); werr != nil {
		return 0, nil, fmt.Errorf("child: %w", werr)
	}
	return setup, rest, rerr
}

// record is one run's full result: what the last line of standard output
// says, plus where and how it was measured.
type record struct {
	Env       environment         `json:"env"`
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     int                 `json:"trace"`
	RatePerS  float64             `json:"paced_rate_per_s"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
	// PerProcess holds what each measuring child of an untraced run gave,
	// in the order they ran: the values the metrics are quartiles of.
	PerProcess map[string][]float64 `json:"per_process,omitempty"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parentMain runs the workload in child processes: for an untraced run the
// measuring children one after the other, for a traced run one child.
// It prints the full record and, as the last line, the result in the
// pipeline's form.
func parentMain(w *workload, o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+100*time.Second)
	defer cancel()
	rec := record{
		Env:      readEnvironment(),
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, RatePerS: w.rate,
		Metrics: make(map[string]reported),
	}
	// measure runs one measuring child and adds its op counts to the record.
	var paced, late int
	measure := func(o options) (time.Duration, map[string]float64, error) {
		d, out, err := spawn(ctx, o)
		if err != nil {
			return 0, nil, err
		}
		var res childResult
		if err := json.Unmarshal(out, &res); err != nil {
			return 0, nil, fmt.Errorf("measuring child's result: %w", err)
		}
		rec.Attempted += res.Attempted
		rec.Failed += res.Failed
		paced += res.Paced
		late += res.Late
		return d, res.Metrics, nil
	}
	if o.trace == 1 {
		_, m, err := measure(o)
		if err != nil {
			return err
		}
		for _, d := range perLayer {
			rec.Metrics[d.Name] = reported{m[d.Name], d.Unit}
		}
	} else {
		values := make(map[string][]float64)
		for i := 0; i < measuringChildren; i++ {
			child := o
			child.seconds = o.seconds / measuringChildren
			child.seed = o.seed*measuringChildren + int64(i) // each process its own inputs, all from --seed
			d, m, err := measure(child)
			if err != nil {
				return err
			}
			values["setup_s"] = append(values["setup_s"], d.Seconds())
			for name, v := range m {
				values[name] = append(values[name], v)
			}
		}
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = reported{quietQuartile(values[d.Name], d.Better), d.Unit}
		}
		rec.PerProcess = values
	}
	rec.Correct = rec.Failed == 0
	if paced > 0 && float64(late)/float64(paced) > 0.01 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d paced ops were sent late, over 1 %%: the generator did not hold its schedule\n", late, paced)
	}
	if rec.Attempted < 1 {
		return errors.New("no op was attempted")
	}

	// Marshal refuses a metric that is not a finite number, so no result is
	// printed with one.
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if o.out != "" {
		f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(full, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, last)
	return nil
}
