// Multitenant: the temporal-isolation demonstration behind §3.4 — a hostile
// CPU-bound tenant shares one worker core with a latency-sensitive tenant.
// Under the paper's preemptive round-robin quantum the worker pauses the
// lone hog within 4 096 gas (a few microseconds) of a short request's
// arrival, so the short tenant's latency stays bounded; with cooperative
// scheduling it is serialized behind the hog (head-of-line blocking).
package main

import (
	"fmt"
	"log"
	"time"

	"sledge"
)

const hogSrc = `
static u8 out[1];

export i32 main() {
	i32 acc = 0;
	for (i32 i = 0; i < 20000000; i = i + 1) {
		acc = acc + i;
	}
	out[0] = 104; // 'h'
	sys_write(out, 1);
	return 0;
}
`

// shortSrc is about 36 k gas (a tenth of a millisecond): far above the
// 1 024 gas a request runs on its own connection before it is handed to a
// worker, so it meets the hog there.
const shortSrc = `
static u8 out[1];

export i32 main() {
	i32 acc = 0;
	for (i32 i = 0; i < 2000; i = i + 1) {
		acc = acc + i;
	}
	out[0] = 115; // 's'
	sys_write(out, 1);
	return 0;
}
`

func run(policy sledge.SchedPolicy, label string) {
	rt := sledge.New(sledge.Config{
		Workers: 1,
		Quantum: sledge.DefaultQuantum,
		Policy:  policy,
	})
	defer rt.Close()
	if _, err := rt.RegisterWCC("hog", hogSrc, sledge.WCCOptions{}); err != nil {
		log.Fatal(err)
	}
	if _, err := rt.RegisterWCC("short", shortSrc, sledge.WCCOptions{}); err != nil {
		log.Fatal(err)
	}

	// The hostile tenant grabs the core...
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		if _, err := rt.Invoke("hog", nil); err != nil {
			log.Printf("hog: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)

	// ...and the latency-sensitive tenant sends three requests meanwhile.
	var worst time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := rt.Invoke("short", nil); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	<-hogDone
	st := rt.Stats()
	fmt.Printf("%-22s worst short-tenant latency: %10v (preemptions: %d, pauses: %d)\n",
		label, worst.Round(10*time.Microsecond), st.Preemptions, st.Pauses)
}

func main() {
	fmt.Println("one worker core, one CPU-hog tenant, one latency-sensitive tenant")
	fmt.Println()
	run(sledge.PolicyPreemptiveRR, "preemptive-rr (5ms):")
	run(sledge.PolicyCooperative, "cooperative:")
	fmt.Println()
	fmt.Println("preemptive round-robin pauses the lone hog for each short request")
	fmt.Println("within 4 096 gas and resumes it with the rest of that quantum;")
	fmt.Println("cooperative scheduling serializes the short tenant behind the hog.")
}
