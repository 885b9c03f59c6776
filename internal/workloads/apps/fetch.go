package apps

// fetch is an I/O-bound function: the request body carries an object key,
// the function fetches it from the runtime's KV store and replies with the
// value (empty-handed misses return exit code 1, which surfaces as a trap).
//
// Against an AsyncKV backend (abi.LatentKV) the sandbox blocks on the fetch
// and gives up its worker until the read is due, so a node's fetch capacity
// is its admission window divided by storage latency rather than CPU — the
// regime where the cluster tier's offload actually pools capacity across
// nodes, and the reason the continuum experiment uses this app instead of
// a compute-bound one (colocated in-process nodes share the host's cores,
// so CPU-bound capacity cannot be added up across them).
//
// FetchApp is intentionally not part of the Apps registry: the paper's
// application study (fig5/table1) compares Wasm against native baselines,
// and fetch's cost is a simulated storage round-trip with no meaningful
// native mirror.
var FetchApp = App{
	Name: "fetch",
	Source: `
static u8 key[64];
static u8 val[4096];

export i32 main() {
	i32 n = sys_read(key, 64);
	i32 m = sys_kv_get(key, n, val, 4096);
	if (m < 0) {
		return 1;
	}
	sys_write(val, m);
	return 0;
}
`,
	GenRequest: func() []byte { return []byte("obj") },
}
