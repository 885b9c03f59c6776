package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sledge/internal/admission"
	"sledge/internal/workloads/apps"
)

func serveRouter(t *testing.T, r *Router) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go r.Serve(ln)
	return "http://" + ln.Addr().String()
}

func TestHTTPFrontEnd(t *testing.T) {
	r := newTestRouter(t, Config{})
	edge := newTestNode(t, 1, saturatedConfig())
	cloud := newTestNode(t, 2, &admission.Config{Workers: 2})
	register(t, r, NodeConfig{Name: "edge0", Runtime: edge})
	register(t, r, NodeConfig{Name: "cloud0", Class: ClassCloud, Link: time.Millisecond, Runtime: cloud})
	url := serveRouter(t, r)
	client := &http.Client{Timeout: 10 * time.Second}

	// A plain invoke routes to the best node.
	resp, err := client.Post(url+"/ping", "application/octet-stream", nil)
	if err != nil {
		t.Fatalf("POST /ping: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "p" {
		t.Fatalf("POST /ping = %d %q", resp.StatusCode, body)
	}

	// Unknown modules 404 at the cluster level.
	resp, err = client.Post(url+"/ghost", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("POST /ghost = %d, want 404", resp.StatusCode)
	}

	// A saturated edge offloads behind the scenes: the client still sees
	// 200. The request targets spin (still at the edge's 500ms default
	// price — the earlier ping completion priced ping's own gas far
	// below the shed threshold), so the edge sheds instantly and the
	// router's retry lands on the cloud with most of the deadline intact.
	occupy(t, edge)
	req, _ := http.NewRequest("POST", url+"/spin", bytes.NewReader(apps.SpinRequest(1000)))
	req.Header.Set("x-sledge-deadline-ms", "200")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) != 4 {
		t.Fatalf("offloaded POST /spin = %d %q", resp.StatusCode, body)
	}

	// The router's own accounting is served at /__cluster.
	resp, err = client.Get(url + "/__cluster")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /__cluster: %v", err)
	}
	if snap.Routed < 2 || snap.Offloads < 1 || len(snap.Nodes) != 2 {
		t.Fatalf("cluster snapshot = %+v", snap)
	}
}

func TestHTTPClusterSaturated(t *testing.T) {
	r := newTestRouter(t, Config{})
	edge := newTestNode(t, 1, saturatedConfig())
	register(t, r, NodeConfig{Name: "edge0", Runtime: edge})
	url := serveRouter(t, r)
	occupy(t, edge)
	client := &http.Client{Timeout: 10 * time.Second}
	req, _ := http.NewRequest("POST", url+"/ping", bytes.NewReader(nil))
	req.Header.Set("x-sledge-deadline-ms", "100")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d (%q), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("cluster 503 missing Retry-After")
	}
	if !strings.Contains(string(body), string(ReasonClusterSaturated)) {
		t.Fatalf("body = %q, want cluster-saturated reason", body)
	}
}

func TestRouterDrain(t *testing.T) {
	r := New(Config{PollInterval: time.Hour})
	rt := newTestNode(t, 1, nil)
	register(t, r, NodeConfig{Name: "edge0", Runtime: rt})
	url := serveRouter(t, r)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url+"/ping", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !r.Drain(5 * time.Second) {
		t.Fatal("drain did not complete cleanly")
	}
	// The front end is gone; a second drain/close is a safe no-op.
	r.Close()
}
