package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// workload is one traffic mix. Every workload runs the same shape: warm-up,
// a closed-loop phase for capacity, then a phase paced at rate, which was
// set once to about 40 % of the closed-loop capacity of the 2-core build
// machine and is held constant on every commit, so that latency is read at
// the same offered load before and after a change.
type workload struct {
	name string
	rate float64  // phase-B ops per second over all measured lanes
	apps []string // apps whose payload pools the ops draw from
	// primary is the app whose module the single-layer timings of the
	// direct pass use (pool acquire, request parse, elided checks).
	primary string
	// oneWorker pins the runtime to a single worker core, so that tenants
	// can only share it by preemption.
	oneWorker bool
	// coldModules says every request of an op is the first its module sees.
	coldModules bool
	// spansPerOp bounds the spans one op records in the exploded pass, the
	// larger of the two traced passes; it sizes the span buffers.
	spansPerOp int
	// lanes describes the client connections for a machine with nproc
	// cores: never more connections than cores, except that isolation needs
	// its two tenants.
	lanes func(nproc int) []laneSpec
}

type laneSpec struct {
	measured bool
	op       func(sys *system) opFunc
}

// opFunc performs op i of a lane and validates every reply in it.
type opFunc func(l *lane, i int) error

var workloads = []*workload{
	{name: "ping", rate: 16000, apps: []string{"ping"}, primary: "ping", spansPerOp: 11, lanes: perCore(steady("ping"))},
	{name: "gocr", rate: 400, apps: []string{"gocr"}, primary: "gocr", spansPerOp: 11, lanes: perCore(steady("gocr"))},
	{
		name: "isolation", rate: 50, apps: []string{"cifar10", "gps-ekf"}, primary: "gps-ekf", spansPerOp: 11, oneWorker: true,
		lanes: func(int) []laneSpec {
			return []laneSpec{
				{measured: false, op: steady("cifar10")}, // the noisy tenant, never paced
				{measured: true, op: steady("gps-ekf")},
			}
		},
	},
	{name: "coldstart", rate: 150, apps: lightApps, primary: "ping", spansPerOp: 3 + 10*len(lightApps), coldModules: true, lanes: perCore(coldstart)},
}

// perCore gives every core one measured lane running op.
func perCore(op func(*system) opFunc) func(int) []laneSpec {
	return func(nproc int) []laneSpec {
		specs := make([]laneSpec, nproc)
		for i := range specs {
			specs[i] = laneSpec{measured: true, op: op}
		}
		return specs
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// invoker sends one request to a module and compares the reply with the
// oracle. The HTTP client and the exploded driver both implement it, so a
// workload's op is written once.
type invoker interface {
	invoke(l *lane, module string, r *request) error
	close()
}

// lane is one client connection (or one exploded driver) and the state of
// the op it is running.
type lane struct {
	id       int
	measured bool
	op       opFunc
	inv      invoker
	rec      *recorder // nil when untraced
	root     int32     // the current op's root span
}

// span records a finished child of the current op when tracing.
func (l *lane) span(name spanName, start, end time.Time) {
	if l.rec != nil {
		l.rec.add(name, l.root, l.root, start, end)
	}
}

// newLanes builds the workload's lanes over fresh invokers.
func (sys *system) newLanes(rec *recorder, mk func() invoker) []*lane {
	specs := sys.w.lanes(sys.nproc)
	lanes := make([]*lane, len(specs))
	for i, s := range specs {
		lanes[i] = &lane{id: i, measured: s.measured, op: s.op(sys), inv: mk(), rec: rec, root: -1}
	}
	return lanes
}

func closeLanes(lanes []*lane) {
	for _, l := range lanes {
		l.inv.close()
	}
}

// steady sends the next payload of the app's pool to the module registered
// at set-up. Lanes start at different offsets so that they do not send the
// same payload in step.
func steady(app string) func(*system) opFunc {
	return func(sys *system) opFunc {
		pool := sys.pools[app]
		return func(l *lane, i int) error {
			if err := l.inv.invoke(l, app, &pool[(i+17*l.id)%len(pool)]); err != nil {
				return fmt.Errorf("%s: %w", app, err)
			}
			return nil
		}
	}
}

// lightApps get a first request in a coldstart op; the other five modules
// are deployed and retired without one.
var lightApps = []string{"ping", "echo", "gps-ekf", "fetch", "spin"}

// deploySeq makes coldstart names unique across lanes, phases and passes.
var deploySeq atomic.Uint64

// coldstart deploys the suite under fresh names in a seeded order, sends the
// first request each light module ever sees, and retires the suite. Every
// step runs even after a failure, so that a failed op leaves nothing
// registered.
func coldstart(sys *system) opFunc {
	return func(l *lane, i int) error {
		suffix := "-" + strconv.FormatUint(deploySeq.Add(1), 10)
		order := sys.deploys[i%len(sys.deploys)]
		var first error
		start := time.Now()
		for _, k := range order {
			name := moduleNames[k]
			if _, err := sys.rt.RegisterWasm(name+suffix, sys.bins[name], "main"); err != nil && first == nil {
				first = err
			}
		}
		l.span(spanCoreRegister, start, time.Now())
		for _, app := range lightApps {
			pool := sys.pools[app]
			if err := l.inv.invoke(l, app+suffix, &pool[(i+17*l.id)%len(pool)]); err != nil && first == nil {
				first = fmt.Errorf("%s: %w", app, err)
			}
		}
		start = time.Now()
		for _, k := range order {
			if !sys.rt.Unregister(moduleNames[k]+suffix) && first == nil {
				first = fmt.Errorf("%s%s was not registered", moduleNames[k], suffix)
			}
		}
		l.span(spanCoreUnregister, start, time.Now())
		return first
	}
}
